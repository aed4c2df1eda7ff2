(** Seeded fault-injection plans for certifying job isolation.

    {!plan} draws a deterministic set of faults (distinct victim jobs,
    all five kinds cycled) for a run of [jobs] jobs;
    {!Pipeline.run_jobs_guarded} arms each fault on its victim's
    originally-requested backend only, so backend degradation has a
    real recovery path.  The tests and [bromc suite --inject] assert
    that every planted fault is contained: attributed to its job in the
    outcome list ({!Pipeline.containment}), with every sibling's result
    intact. *)

type kind =
  | Raise      (** exception thrown inside the worker *)
  | Trap       (** simulated-program trap *)
  | Fuel       (** fuel exhaustion (tiny instruction budget) *)
  | Deadline   (** watchdog exhaustion (cancellation flag forced on) *)
  | Corrupt    (** wrong-result corruption of the job's observables *)

val all_kinds : kind list

val kind_name : kind -> string
(** Stable tag ("raise", "trap", "fuel", "deadline", "corrupt"), the
    [o_injected] of a victim's outcome. *)

type fault = {
  i_job : int;          (** victim job index *)
  i_kind : kind;
}

exception Injected of int
(** What a {!Raise} fault throws, carrying the victim job id. *)

val pp_fault : Format.formatter -> fault -> unit

val plan : seed:int -> jobs:int -> count:int -> fault list
(** [plan ~seed ~jobs ~count] draws [min count jobs] faults against
    distinct victim jobs, deterministically in [seed].  Kinds are cycled
    in {!all_kinds} order so every class appears whenever
    [count >= 5]. *)

val find : fault list -> job:int -> fault option

(** {1 Server-level chaos plans}

    The serving counterpart of {!plan}: seeded faults against a
    {!Server} under {!Replay} traffic.  {!S_kill_worker} and {!S_stall}
    strike {e inside} the victim request's guarded closure (via
    {!Server.submit}'s [inject] hook), so the degradation ladder
    recovers a kill and the deadline fails a stall; the other three damage the environment — artifact
    store bytes, the victim program's durable record — just before the victim
    request fires, so the self-healing store and the next merge's record
    rewrite recover under live load.  The certification bar is
    the same as for jobs: zero wrong results, zero escapes. *)

type server_kind =
  | S_kill_worker  (** exception thrown inside the serving closure *)
  | S_stall  (** the attempt stalls past the per-request deadline *)
  | S_corrupt_artifact  (** bytes of a cached [.cmxs] flipped on disk *)
  | S_truncate_artifact  (** a cached [.cmxs] truncated on disk *)
  | S_tear_record  (** the victim program's durable record torn *)

val server_kind_name : server_kind -> string
(** Stable tag ("kill_worker", "stall", "corrupt_artifact",
    "truncate_artifact", "tear_record") used in chaos reports. *)

type server_fault = { sv_request : int; sv_kind : server_kind }

val server_plan : seed:int -> requests:int -> count:int -> server_fault list
(** [min count requests] faults against distinct victim requests,
    deterministic in [seed], kinds cycled in the order of
    {!server_kind}'s constructors (every class appears whenever
    [count >= 5]), sorted by request index. *)

val server_find : server_fault list -> request:int -> server_fault option
