(** Per-job resilience: watchdog deadlines, bounded seeded retries, and
    structured failure classification.

    {!protect} runs one job under a {!policy} and always returns — every
    exception the job can raise is folded into a {!Pool.outcome}:

    - normal return               → [Ok]
    - {!Sim.Runtime.Cancelled}    → [Timeout] (the watchdog fired)
    - {!Sim.Runtime.Trap}         → [Trap] (deterministic; never retried)
    - any other exception         → retried up to [retries] times with
      seeded exponential backoff, then [Crash] (no retries configured)
      or [Gave_up] (retries exhausted)

    Backend degradation (the [degrade] field) is interpreted by
    {!ladder}, which walks the execution backends from the requested
    one down to the reference interpreter and calls {!protect} once per
    rung.  Both the batch jobs ({!Pipeline.run_guarded_job}) and the
    server ({!Server.handle}) run under it. *)

type policy = {
  timeout_ms : int option;
      (** per-attempt wall-clock budget; [None] = no watchdog *)
  retries : int;      (** extra attempts after a crashed one (not traps) *)
  backoff_ms : int;   (** base backoff unit; doubles per attempt, with
                          seeded jitter of up to one unit; [0] = none *)
  seed : int;         (** jitter seed — retry schedules are reproducible *)
  degrade : bool;     (** walk the backend ladder on failure
                          ({!ladder}) *)
}

val default : policy
(** No timeout, no retries, 10 ms backoff base, no degradation. *)

type meta = {
  m_attempts : int;        (** attempts performed, >= 1 *)
  m_errors : string list;  (** one line per failed attempt, oldest first *)
}

val backoff_ms : policy -> index:int -> attempt:int -> int
(** The deterministic backoff before retrying [attempt] of job [index]. *)

val cancel_of : policy -> (unit -> bool) option
(** A fresh watchdog flag for one attempt under [policy]'s deadline
    ([None] when the policy has no timeout). *)

val protect :
  ?index:int ->
  policy ->
  (attempt:int -> cancel:(unit -> bool) option -> 'a) ->
  'a Pool.outcome * meta
(** Run a job to a structured outcome; never raises from the job's own
    failures.  The job receives the attempt number (1-based) and a fresh
    cancellation flag to thread into {!Sim.Runtime.config.cancel};
    [index] only seeds the backoff jitter. *)

val ladder :
  ?index:int ->
  policy ->
  Config.t ->
  (backend:Sim.Machine.backend ->
  attempt:int ->
  cancel:(unit -> bool) option ->
  'a) ->
  Sim.Machine.backend * 'a Pool.outcome * meta
(** [ladder policy config job] runs [job] under {!protect} on each rung
    of [Config.rungs config] in turn ([config]'s backend alone when
    [policy.degrade] is off) and returns the rung that produced the
    final outcome.  [Ok], [Trap] and [Timeout] are final on any rung;
    [Crash] and [Gave_up] move to the next rung while one is left.  The
    returned meta sums attempts and errors over every rung walked. *)
