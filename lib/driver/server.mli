(** The long-running optimization service behind [bromc serve].

    A server owns a {!Pool.Workers} pool and fans run requests across
    it.  In front of the engines sit three content-hash
    {!Sim.Artifact} caches — parsed MIR, pre-decoded {!Sim.Image}s and
    compiled closure programs (the native rung additionally reuses
    {!Sim.Native}'s on-disk [.cmxs] store and in-process memo) — so
    each distinct program is parsed, trained, reordered, pre-decoded
    and compiled {e once} and then served from warm artifacts, with
    single-flight builds when several domains request the same cold
    key at once.

    {b Online profiles.}  The served artifact is never instrumented
    (responses stay byte-identical to a batch run, and the hot path
    touches no shared counter).  Instead every [sample_every]-th
    request per worker also executes the cached {e instrumented
    training clone} on the request's input, recording into that
    worker's private profile shard ({!Sim.Profile.copy_shape}) and
    per-worker predictor bank.  Shards are merged asynchronously into
    the program's global profile — opportunistically after enough
    samples accumulate (a [try_lock]; nobody blocks), or forced by
    {!sync}.

    {b Drift-triggered re-optimization.}  After a merge, if enough new
    executions accumulated, the server recomputes the Eq. 1–4
    selection signature ({!Reorder.Drift}) under the merged counts.  A
    changed signature means live traffic now justifies a different
    ordering for at least one sequence: the server re-optimizes from
    the cached base ({!Pipeline.reoptimize} — no re-parse, no
    re-detect), rebuilds image and closure artifacts under a new
    generation key, and atomically swaps the served artifact.
    In-flight requests keep the generation they started with.

    {b Resilience.}  Every request runs under {!Guard.ladder}, the
    ladder batch jobs walk too: per-attempt watchdog, bounded seeded
    retries, and backend degradation native → compiled → reference,
    each rung served from its cached artifact.  One poisoned request cannot take
    the service down.

    {b Durability.}  With [state_dir] set, everything the online loop
    learns is persisted through {!State}: every merge appends an
    absolute per-program journal record (plus the predictor-bank
    tallies), a snapshot compacts the journal every [snapshot_every]
    records, and graceful {!shutdown} drains, merges and leaves a
    fresh snapshot.  A restarting server warm-starts each persisted
    program at its learned drift generation with its merged profile
    counters intact — no retraining, no generation reset — and drops
    records whose content key no longer matches (config change).

    {b Admission control.}  With [queue_cap] set, a request arriving
    while [queue_cap] tasks wait is shed with an ["overloaded"]
    response instead of growing the queue (and tail latency) without
    bound.  Per-request deadlines ([deadline_ms]) tighten the
    watchdog for that request only. *)

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
  st_caches : Sim.Artifact.stats list;  (** program/MIR/image/closure *)
  st_native : Sim.Native.stats;
  st_mispredicts : ((int * int * int) * (int * int)) list;
      (** merged shadow-run telemetry per predictor key:
          (lookups, mispredicts) *)
  st_overloaded : int;  (** requests shed by admission control *)
  st_restored : int;  (** programs warm-started from [state_dir] *)
  st_programs : (string * int * int) list;
      (** per program: (name, served generation, profile executions) *)
}

val create :
  ?config:Config.t ->
  ?policy:Guard.policy ->
  ?domains:int ->
  ?sample_every:int ->
  ?merge_every:int ->
  ?drift_min_execs:int ->
  ?state_dir:string ->
  ?queue_cap:int ->
  ?snapshot_every:int ->
  unit ->
  t
(** Spawn the worker pool and empty caches.  [sample_every] (default
    4): every n-th request per worker runs the profiling shadow.
    [merge_every] (default 8): shadow runs accumulated across workers
    before an opportunistic merge attempt.  [drift_min_execs] (default
    32): new profile executions required after the last
    (re-)optimization before the drift check may fire — the damper
    that keeps a handful of unusual requests from thrashing the
    artifacts.  [policy] defaults to {!Guard.default} with degradation
    enabled.

    [state_dir] makes the server durable: learned state is journaled
    and snapshotted there ({!State}), and existing state found in the
    directory is restored before the first request — each surviving
    program warm-starts at its persisted drift generation with its
    merged profile counters.  [queue_cap] (default unbounded) bounds
    the pool's waiting queue; excess requests are shed with an
    ["overloaded"] response.  [snapshot_every] (default 64): journal
    records between snapshot compactions. *)

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

    [deadline_ms] tightens the guard policy's watchdog for this
    request only (it never loosens a stricter policy timeout); on
    expiry the response status is ["timeout"].  When admission control
    sheds the request the response status is ["overloaded"] — no
    exception escapes.  [inject] is the chaos hook: it runs {e inside}
    the guarded closure on the first execution attempt, so a raised
    fault exercises the real recovery path (retry, degradation to the
    next rung); test/fault-drill use only. *)

val post :
  ?deadline_ms:int ->
  ?inject:(unit -> unit) ->
  t -> name:string -> source:string -> input:string ->
  (response -> unit) -> unit
(** Fire-and-forget {!submit}: enqueue the request and return; the
    callback runs on the worker that served it — except for a shed
    request, whose ["overloaded"] response is delivered on the
    {e calling} thread, so drivers tracking in-flight counts never
    leak a slot. *)

val oracle : t -> name:string -> source:string -> input:string -> string * int
(** [(output, exit_code)] of the {e reference interpreter} on the
    cached optimized base (pre-reordering) — the ground truth a served
    response must match byte for byte.  Builds the program's entry if
    cold.  Runs on the calling thread; intended for differential
    checks in tests and replay, not the hot path. *)

val sync : t -> unit
(** Block until every program's shards are merged and the drift check
    has run (re-optimizing where drifted).  Deterministic alternative
    to waiting for the opportunistic merge.  On a durable server every
    program's state is journaled by the merge, so after [sync] a crash
    loses nothing learned before it. *)

val stats : t -> stats

val stats_json : stats -> Json.t
(** The one JSON rendering of {!stats}, shared by [bromc serve]'s
    [stats] line and {!Replay.write_json}: counters, every cache's full
    {!Sim.Artifact.stats}, the full {!Sim.Native.stats}, and per-program
    generations.  [st_mispredicts] is not rendered. *)

val reopt_events : t -> reopt_event list
(** Re-optimizations so far, oldest first. *)

val domains : t -> int

val shutdown : ?crash:bool -> t -> unit
(** Graceful by default: stop accepting, drain the queue, join the
    workers, merge every straggling shard, and (durable servers) leave
    a final snapshot and an empty journal.  [~crash:true] simulates
    power loss for fault drills: the workers are stopped but {e no}
    final merge or snapshot is written — a restart must stand on the
    journal alone.  Idempotent. *)
