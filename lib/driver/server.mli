(** The long-running optimization service behind [bromc serve].

    A server owns a {!Pool.Workers} pool and fans run requests across
    it.  In front of the engines sit three content-hash
    {!Sim.Artifact} caches — program entries (the optimized base, its
    training clone, profiles and served generation), pre-decoded
    {!Sim.Image}s and compiled closure programs (the native rung additionally reuses
    {!Sim.Native}'s on-disk [.cmxs] store and in-process memo) — so
    each distinct program is parsed, trained, reordered, pre-decoded
    and compiled {e once} and then served from warm artifacts, with
    single-flight builds when several domains request the same cold
    key at once.

    {b Online profiles.}  The served artifact is never instrumented
    (responses stay byte-identical to a batch run, and the hot path
    touches one atomic counter of its program).  Instead every 4th
    successful request of each program also executes the cached {e instrumented training clone}
    on the request's input, recording into that worker's private
    profile shard ({!Sim.Profile.copy_shape}).  Shards are merged
    asynchronously into the program's global profile —
    opportunistically once 8 shadow runs accumulate (a [try_lock];
    nobody blocks), or forced by {!sync}.

    {b Drift-triggered re-optimization.}  After a merge, if at least 32
    new executions accumulated since the last (re-)optimization (the
    damper that keeps a handful of unusual requests from thrashing the
    artifacts), the server recomputes the Eq. 1–4
    selection signature ({!Reorder.Drift}) under the merged counts.  A
    changed signature means live traffic now justifies a different
    ordering for at least one sequence: the server re-optimizes from
    the cached base ({!Pipeline.reoptimize} — no re-parse, no
    re-detect), rebuilds image and closure artifacts under a new
    generation key, and atomically swaps the served artifact.
    In-flight requests keep the generation they started with.

    {b Resilience.}  Every request runs under {!Guard.ladder}, the
    ladder batch jobs walk too: a per-request watchdog and backend
    degradation native → compiled → reference, each rung served from
    its cached artifact.  One poisoned request cannot take the service
    down.

    {b Durability.}  With [state_dir] set, everything the online loop
    learns is persisted through {!State}: a program's first build and
    every merge atomically replace its one record file with its
    absolute state, and graceful {!shutdown} drains and merges.  A
    restarting server warm-starts each persisted program at its
    learned drift generation with its merged profile counters intact —
    no retraining, no generation reset — and drops records whose
    content key no longer matches (config change).

    {b Deadlines.}  The request queue is unbounded.  A per-request
    deadline ([deadline_ms]) tightens the watchdog for that request
    only. *)

type t

type response = {
  rs_program : string;  (** request's program name *)
  rs_status : string;  (** {!Pool.outcome_status}: ["ok"], ["trap"], … *)
  rs_output : string;  (** program stdout ([""] unless ok) *)
  rs_exit_code : int;
  rs_backend : string;  (** rung that served the request *)
  rs_generation : int;  (** artifact generation served *)
  rs_cold : bool;  (** this request built the program's artifacts *)
  rs_message : string;  (** failure detail ([""] when ok) *)
  rs_wall_ms : float;  (** in-worker service time *)
}

type reopt_event = {
  re_program : string;
  re_generation : int;  (** generation the re-optimization created *)
  re_executions : int;  (** merged profile executions at the trigger *)
  re_signature : string;  (** the new selection signature *)
}

type stats = {
  st_requests : int;
  st_cold : int;  (** requests that found their program cold *)
  st_shadow_runs : int;  (** sampled instrumented executions *)
  st_merges : int;  (** shard-merge passes *)
  st_reopts : int;  (** drift-triggered re-optimizations *)
  st_domains : int;
  st_caches : Sim.Artifact.stats list;
      (** the [programs], [image] and [closure] caches, in that order *)
  st_native : Sim.Native.stats;
  st_restored : int;  (** programs warm-started from [state_dir] *)
  st_programs : (string * int * int) list;
      (** per program, ordered by name: (name, served generation,
          profile executions) *)
}

val create : ?config:Config.t -> ?domains:int -> ?state_dir:string -> unit -> t
(** Spawn the worker pool and empty caches.  Requests run under
    {!Guard.default} with degradation enabled; sampling, merging and
    the drift damper run at the fixed rates above.

    [state_dir] makes the server durable: each program's learned state
    is kept there as one record file ({!State}), and the records found
    in the directory are restored before the first request — each
    surviving program warm-starts at its persisted drift generation
    with its merged profile counters.  The directory is created as
    needed; one that cannot be raises [Sys_error] or [Unix.Unix_error]
    before any worker starts. *)

val submit :
  ?deadline_ms:int ->
  ?inject:(unit -> unit) ->
  t -> name:string -> source:string -> input:string -> response
(** Serve one request, blocking the calling thread (the work itself
    runs on a pool worker — do not call from inside one).  [name] is a
    display label; caching is keyed by a content hash of [source] and
    the config fingerprint, so equal sources share artifacts whatever
    their names.  A cold program is compiled, trained on this
    request's input, reordered and cached; every later request (any
    worker) reuses the artifacts.

    [deadline_ms] arms the guard's watchdog for this request only; on
    expiry the response status is ["timeout"].  [inject] is the chaos
    hook: it runs {e inside}
    the guarded closure on the first execution attempt, so a raised
    fault exercises the real recovery path (degradation to the next
    rung); test/fault-drill use only. *)

val post :
  ?deadline_ms:int ->
  ?inject:(unit -> unit) ->
  t -> name:string -> source:string -> input:string ->
  (response -> unit) -> unit
(** Fire-and-forget {!submit}: enqueue the request and return; the
    callback runs on the worker that served it. *)

val oracle : t -> name:string -> source:string -> input:string -> string * int
(** [(output, exit_code)] of the {e reference interpreter} on the
    cached optimized base (pre-reordering) — the ground truth a served
    response must match byte for byte.  Builds the program's entry if
    cold.  Runs on the calling thread; intended for differential
    checks in tests and replay, not the hot path. *)

val native_artifact : t -> source:string -> string option
(** The store path the native rung loads the plugin of [source]'s
    served generation from ({!Sim.Native.store_path}), whether or not
    it has been built yet.  [None] when the program has no entry yet,
    no native plugin can exist, or the server's backend is not
    [`Native] (it never loads a plugin).  The chaos replay damages this
    file. *)

val state_record : t -> source:string -> string option
(** The record file ({!State.record_path}) that holds [source]'s
    learned state.  [None] without a [state_dir] or before the program
    has an entry.  The chaos replay tears this file. *)

val sync : t -> unit
(** Block until every program's shards are merged and the drift check
    has run (re-optimizing where drifted).  Deterministic alternative
    to waiting for the opportunistic merge.  On a durable server the
    merge rewrites every program's record, so after [sync] a crash
    loses nothing learned before it. *)

val stats : t -> stats

val stats_json : stats -> Json.t
(** The one JSON rendering of {!stats}, printed by [bromc serve]'s
    [stats] line: counters, every cache's full
    {!Sim.Artifact.stats}, the full {!Sim.Native.stats}, and per-program
    generations. *)

val reopt_events : t -> reopt_event list
(** Re-optimizations so far, oldest first. *)

val domains : t -> int

val shutdown : ?crash:bool -> t -> unit
(** Graceful by default: stop accepting, drain the queue, join the
    workers, and merge every straggling shard (rewriting each record
    on durable servers).  [~crash:true] simulates power loss for fault
    drills: the workers are stopped but {e no} final merge is run — a
    restart must stand on the records already written.  Idempotent. *)
