(** Write-ahead journal and checkpoints for the scheduler service
    (docs/JOURNAL.md).

    {!Sink} appends length-prefixed, CRC-32-checksummed, monotonically
    sequenced records and makes them durable with an fsync at each round
    commit; {!Source} scans a journal back, failing closed on anything
    but the torn tail a crash legitimately leaves; {!Checkpoint} stores
    generation-numbered full-state snapshots with atomic
    rename-into-place so recovery replays a suffix instead of the whole
    history; {!Error} is the closed error taxonomy shared by all of
    them.  {!Sink.Crashed} is raised by the [journal.crash] failpoint
    behind the crash-anywhere recovery property (docs/FAILPOINTS.md).
    {!Frame} (the shared framing primitives) is exposed for the
    adversarial-input tests.

    The replaying state machine lives on the simulator side
    ([Sim.Recovery], [Sim.Service]); this library knows nothing about
    what the record bodies mean. *)

module Error = Error
module Frame = Frame
module Sink = Sink
module Source = Source
module Checkpoint = Checkpoint
