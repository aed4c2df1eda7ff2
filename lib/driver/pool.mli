(** A bounded pool of OCaml 5 domains for fanning out independent
    measurement jobs (one {!Pipeline} run per workload).

    Work items are claimed from a shared atomic counter, results land in
    their input slot, and the caller receives them in input order — so
    output is deterministic regardless of scheduling.  Every job runs to
    completion (or to a captured exception) whatever its siblings do;
    {!map} then re-raises the first failure (in input order) wrapped in
    {!Job_error} so the job is attributable.  Callers that must keep
    every sibling's result run total jobs: {!Guard.protect} folds each
    job's failures into a structured {!outcome}, which is how
    {!Pipeline.run_jobs_guarded} uses the pool.

    The pipeline has no global mutable state, so jobs are data-parallel;
    callers must only take care to force any [lazy] inputs *before*
    submitting (concurrently forcing one lazy from two domains raises
    [CamlinternalLazy.Undefined]). *)

val default_domains : unit -> int
(** Domains used when [?domains] is omitted:
    [Domain.recommended_domain_count ()] clamped to [1..16], or the
    [BROMC_DOMAINS] environment variable when set.  A [BROMC_DOMAINS]
    that is not a positive integer degrades to 1 domain with a single
    warning on stderr. *)

(** {2 Structured per-job outcomes} *)

type exn_info = {
  exn_name : string;     (** [Printexc.exn_slot_name] of the exception *)
  exn_message : string;  (** [Printexc.to_string] rendering *)
  backtrace : string;    (** raw backtrace, possibly empty *)
}

val exn_info : ?backtrace:string -> exn -> exn_info

type 'a outcome =
  | Ok of 'a                   (** the job finished *)
  | Trap of string             (** the simulated program trapped *)
  | Timeout of int             (** watchdog deadline (ms) expired *)
  | Crash of exn_info          (** the job raised any other exception *)
  | Gave_up of { attempts : int; last : exn_info }
      (** retries exhausted on a persistently-crashing job *)

val outcome_ok : 'a outcome -> bool

val outcome_status : 'a outcome -> string
(** ["ok" | "trap" | "timeout" | "crash" | "gave_up"] — the stable
    machine-readable tag used by failure manifests. *)

val outcome_message : 'a outcome -> string
(** Human-readable failure description; [""] for {!Ok}. *)

exception Job_error of int * string * exn
(** [Job_error (index, label, e)]: job [index] (0-based input position,
    with its display [label]) raised [e].  Raised by {!map}; the
    original exception and backtrace are preserved in the payload. *)

(** {2 Fan-out} *)

val map : ?domains:int -> ?label:(int -> 'a -> string) -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element, running up to [domains]
    domains (never more than [List.length xs]; [domains <= 1] degrades
    to plain sequential application).  Results are in input order.
    Fail-fast: if any job raised, the first failure in input order is
    re-raised as {!Job_error} (completed siblings are discarded). *)

(** {2 Long-lived worker pool}

    {!map} spawns fresh domains per call — right for batch
    fan-out, wrong for a daemon serving an open-ended request stream,
    which wants the spawn cost paid once and stable worker identities
    (per-domain profile shards are indexed by worker).  A {!Workers.t}
    keeps [n] domains alive pulling tasks off one queue until
    {!Workers.shutdown} drains and joins them. *)
module Workers : sig
  type t

  exception Overloaded of { depth : int; cap : int }
  (** Raised by {!post} (and {!run}) when the queue is at its
      high-watermark: admission control sheds the request instead of
      letting queueing delay grow without bound.  [depth] is the queue
      length observed, [cap] the configured bound. *)

  val create : ?domains:int -> ?queue_cap:int -> unit -> t
  (** Spawn the worker domains now ({!default_domains} when [?domains]
      is omitted; always at least 1).  [queue_cap] bounds {e waiting}
      tasks (in-flight tasks are not counted): a {!post} that would
      push the queue past the cap raises {!Overloaded} instead.  0 (the
      default) means unbounded. *)

  val size : t -> int
  (** Number of worker domains; worker indices are [0 .. size-1]. *)

  val depth : t -> int
  (** Tasks currently waiting in the queue. *)

  val queue_cap : t -> int

  val shed : t -> int
  (** Posts refused by admission control so far. *)

  val post : t -> (worker:int -> unit) -> unit
  (** Enqueue a task, return immediately.  Tasks run in FIFO claim
      order on whichever worker frees up first.  A task that escapes
      with an exception is reported on stderr and its worker keeps
      going.  Raises [Invalid_argument] after {!shutdown} and
      {!Overloaded} past the queue cap. *)

  val run : t -> (worker:int -> 'a) -> 'a
  (** Enqueue a task and block until it finishes, returning its result
      (or re-raising its exception with the original backtrace).  Must
      not be called from inside a pool task: with every worker waiting
      the pool would deadlock. *)

  val shutdown : t -> unit
  (** Stop accepting tasks, let the queue drain, join every worker.
      Idempotent. *)
end
