(** Replay driver: simulated production traffic for {!Server}.

    [bromc replay] (and the CI daemon smoke job) fire thousands of
    mixed workload requests at a {!Server} at a configurable
    concurrency and record steady-state throughput, p50/p99 service
    latency, cache hit rates and re-optimization counts — the
    serving-shaped counterpart of the batch bench.

    The request mix cycles over the paper's 17 workloads (or a chosen
    subset), each request taking a seeded newline-aligned slice of the
    workload's test input so inputs vary while staying valid.  With
    [drift] enabled the mix also includes a synthetic char-class
    dispatch program whose input distribution flips halfway through
    the stream — lowercase-heavy, then digit-heavy — so the accumulated
    online profile flips the Eq. 1–4 ordering of its dispatch sequence
    and a drift-triggered re-optimization demonstrably fires.

    The replay runs in two waves with a {!Server.sync} between them
    (so shard merges and the drift check happen deterministically even
    at low request counts), and differentially checks a sample of
    responses against {!Server.oracle} — the reference interpreter on
    the unreordered base — which must match byte for byte. *)

type fault_report = {
  rf_request : int;  (** victim request index *)
  rf_kind : string;  (** {!Inject.server_kind_name} tag *)
  rf_outcome : string;
      (** ["ok"] (served correctly despite the fault),
          ["failed:STATUS"] (clean failure response — contained),
          ["vacuous"] (nothing to damage: no artifact, no state dir),
          ["escape"] (lost response or wrong result — a certification
          failure) *)
}

type outcome = {
  ro_requests : int;  (** timed requests fired *)
  ro_ok : int;
  ro_failed : int;  (** non-[ok] responses (trap/timeout/crash) *)
  ro_elapsed_s : float;  (** wall clock of the timed warm phase *)
  ro_throughput_rps : float;  (** ok requests / elapsed *)
  ro_p50_ms : float;  (** median in-worker service time *)
  ro_p99_ms : float;
  ro_cold_ms : float;
      (** mean per-request wall on a fresh single-domain server with
          empty caches — the parse+train+reorder+compile-every-time
          baseline, one request per distinct program in the mix *)
  ro_cold_rps : float;
  ro_warm_ratio : float;  (** [ro_throughput_rps /. ro_cold_rps] *)
  ro_checked : int;  (** responses differentially checked *)
  ro_mismatches : int;  (** byte differences against the oracle (0!) *)
  ro_reopts : int;  (** across the crash when one was simulated *)
  ro_events : Server.reopt_event list;
  ro_stats : Server.stats;  (** server counters at shutdown *)
  ro_chaos_planned : int;  (** faults drawn from the chaos plan *)
  ro_chaos_ok : int;  (** victims still served correctly *)
  ro_chaos_failed : int;  (** victims with a clean failure response *)
  ro_chaos_vacuous : int;  (** faults that found nothing to damage *)
  ro_chaos_escapes : int;  (** lost responses or wrong results (0!) *)
  ro_chaos_faults : fault_report list;
  ro_crash_restarts : int;  (** simulated crash-restart cycles (0 or 1) *)
  ro_restored : int;  (** programs warm-started after the crash *)
  ro_restore_exact : bool;
      (** restored (name, generation, executions) set matched the
          pre-crash server exactly *)
}

val drift_name : string
(** Name of the synthetic drift workload (["drift"]). *)

val drift_source : string
(** Its MiniC source: a char-class dispatch chain (digits / uppercase /
    lowercase / other) whose hot arm is whatever the input is made
    of. *)

val drift_input : phase:int -> seed:int -> string
(** Deterministic input for the drift program: phase 0 is
    lowercase-heavy, phase 1 digit-heavy and longer (so the accumulated
    counts overtake the first phase's). *)

val input_slice : seed:int -> string -> string
(** A newline-aligned prefix slice of [text] whose length varies with
    [seed] (capped at 2048 bytes); [""] stays [""]. *)

val run :
  ?config:Config.t ->
  ?workloads:string list ->
  ?requests:int ->
  ?concurrency:int ->
  ?seed:int ->
  ?drift:bool ->
  ?sample_every:int ->
  ?merge_every:int ->
  ?drift_min_execs:int ->
  ?check_every:int ->
  ?chaos:int ->
  ?chaos_seed:int ->
  ?state_dir:string ->
  ?progress:(string -> unit) ->
  unit ->
  outcome
(** Run the replay.  Defaults: all 17 workloads, 1000 requests,
    {!Pool.default_domains} concurrency, seed 42, drift on,
    [sample_every] 2, [merge_every] 8, [drift_min_execs] 64,
    [check_every] 16 (0 disables the differential sample).
    [progress] receives one-line phase messages.  Raises [Failure] on
    an unknown workload name.

    [chaos] (default 0) plants that many {!Inject.server_plan} faults
    (seeded by [chaos_seed], default 7) across the request stream:
    worker kills and stalls strike inside the victim's guarded
    closure; artifact corruption/truncation and journal tears damage
    the environment just before the victim fires.  Every victim is
    differentially checked; the certification bar is
    [ro_chaos_escapes = 0].

    [state_dir] makes the server durable and adds a crash-restart
    cycle between the waves: after wave 1's sync the server is killed
    with {e no} final flush, a fresh server restores from the state
    dir (certified exact in [ro_restore_exact]), and wave 2 resumes on
    it.  Restart time is excluded from [ro_elapsed_s]. *)

val write_json : path:string -> outcome -> unit
(** Write the bench record ([BENCH_PR7.json], [BENCH_PR10.json]):
    parameters, throughput and latency, per-cache
    hit/miss/build/eviction counters, native store counters, chaos and
    durability verdicts, re-optimization events, differential-check
    tally. *)
