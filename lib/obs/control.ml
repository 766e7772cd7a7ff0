let flag = ref false
let enabled () = !flag
let set_enabled b = flag := b
let now_wall () = Unix.gettimeofday ()
