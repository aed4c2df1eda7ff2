(** A bounded pool of OCaml 5 domains for fanning out independent
    measurement jobs (one {!Pipeline} run per workload).

    {!map} posts one task per item to a {!Workers} pool made for the
    call, results land in their input slot, and the caller receives
    them in input order — so output is deterministic regardless of
    scheduling.  Every job runs to completion (or to a captured
    exception) whatever its siblings do; {!map} then re-raises the
    first failure in input order.  Callers that must keep every
    sibling's result run total jobs: {!Guard.ladder} folds each job's
    failures into a structured {!outcome}, which is how
    {!Pipeline.run_jobs_guarded} uses the pool.

    {!both} splits one job in two: a freshly spawned domain runs one
    half while the caller runs the other, and the domain is joined
    before either result or exception leaves.  {!Pipeline.run} uses it
    to measure the original while the reordered version trains, so
    [map] over [d] domains runs up to [2d] at once; on a host with no
    more than [d] cores the halves run in turn on the worker instead.

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

val outcome_ok : 'a outcome -> bool

val outcome_status : 'a outcome -> string
(** ["ok" | "trap" | "timeout" | "crash"] — the stable tag
    [bromc suite] prints in its status column. *)

val outcome_message : 'a outcome -> string
(** Human-readable failure description; [""] for {!Ok}. *)

(** {2 Fan-out} *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element, running up to [domains]
    domains (never more than [List.length xs]; [domains <= 1] degrades
    to plain sequential application).  Results are in input order.  If
    any job raised, the first failure in input order is re-raised,
    unwrapped, with its backtrace (completed siblings are discarded). *)

val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both f g] runs [f] on a freshly spawned domain while the calling
    domain runs [g], joins, and returns both results.  The spawned
    domain is joined on every path: if [g] raises, its exception is
    re-raised after the join and [f]'s outcome is dropped; otherwise an
    exception of [f] is re-raised by the join.  Callers that need both
    outcomes make [f] and [g] total.

    Called on a {!Workers} domain of a pool that already has one
    worker per core of the host ([Domain.recommended_domain_count]),
    it spawns nothing: it runs [f], then [g], on the calling domain,
    and an exception of [f] leaves before [g] runs. *)

(** {2 Long-lived worker pool}

    A daemon serving an open-ended request stream wants the domain spawn
    cost paid once and stable worker identities (per-domain profile
    shards are indexed by worker).  A {!Workers.t} keeps [n] domains
    alive pulling tasks off one queue until {!Workers.shutdown} drains
    and joins them; {!map} is one such pool per call. *)
module Workers : sig
  type t

  val create : ?domains:int -> unit -> t
  (** Spawn the worker domains now ({!default_domains} when [?domains]
      is omitted; always at least 1).  The task queue is unbounded. *)

  val size : t -> int
  (** Number of worker domains; worker indices are [0 .. size-1]. *)

  val post : t -> (worker:int -> unit) -> unit
  (** Enqueue a task, return immediately.  Tasks run in FIFO claim
      order on whichever worker frees up first.  A task that escapes
      with an exception is reported on stderr and its worker keeps
      going.  Raises [Invalid_argument] after {!shutdown}. *)

  val run : t -> (worker:int -> 'a) -> 'a
  (** Enqueue a task and block until it finishes, returning its result
      (or re-raising its exception with the original backtrace).  Must
      not be called from inside a pool task: with every worker waiting
      the pool would deadlock. *)

  val shutdown : t -> unit
  (** Stop accepting tasks, let the queue drain, join every worker.
      Idempotent. *)
end

(** Posted tasks still to answer, for a caller that waits for every
    answer: [track t k] counts one more task now and returns its
    completion callback, [k] and then one fewer (also when [k] raises);
    [wait t] blocks until none is left. *)
module Inflight : sig
  type t

  val create : unit -> t
  val track : t -> ('a -> unit) -> 'a -> unit
  val wait : t -> unit
end
