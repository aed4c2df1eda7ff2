(** Per-job resilience: watchdog deadlines, structured failure
    classification and backend degradation.

    {!ladder} runs a job under a {!policy} and always returns — every
    exception one attempt can raise is folded into a {!Pool.outcome}:

    - normal return               → [Ok]
    - {!Sim.Runtime.Cancelled}    → [Timeout] (the watchdog fired)
    - {!Sim.Runtime.Trap}         → [Trap]
    - any other exception         → [Crash]

    Every run is deterministic, so an attempt is never repeated on the
    same rung.  Backend degradation (the [degrade] field) is the one way
    a crashed job recovers: {!ladder} walks the execution backends from
    the requested one down to the reference interpreter, one attempt per
    rung.  Both the batch jobs ({!Pipeline.run_guarded_job}) and the
    server ({!Server.handle}) run under it. *)

type policy = {
  timeout_ms : int option;
      (** per-attempt wall-clock budget; [None] = no watchdog *)
  degrade : bool;     (** walk the backend ladder on a crash *)
}

val default : policy
(** No timeout, no degradation. *)

type meta = {
  m_attempts : int;        (** rungs tried, >= 1 *)
  m_errors : string list;  (** one line per failed attempt, oldest first *)
}

val ladder :
  policy ->
  Config.t ->
  (backend:Sim.Machine.backend -> cancel:(unit -> bool) option -> 'a) ->
  Sim.Machine.backend * 'a Pool.outcome * meta
(** [ladder policy config job] runs one attempt of [job] on each rung
    of [Config.rungs config] in turn ([config]'s backend alone when
    [policy.degrade] is off) and returns the rung that produced the
    final outcome; never raises from the job's own failures.  Each
    attempt receives a fresh cancellation flag to thread into
    {!Sim.Runtime.config.cancel}.  [Ok], [Trap] and [Timeout] are final
    on any rung; [Crash] moves to the next rung while one is left.  The
    returned meta counts the rungs walked and their error lines, each
    naming its attempt and backend. *)
