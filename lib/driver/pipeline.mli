(** The two-compilation-pass process of the paper's Figure 2.

    Pass 1: front end, switch lowering under the configured heuristic
    set, conventional optimizations ({!compile_base}), sequence
    detection ({!detect_seqs}), profiling instrumentation
    ({!instrument}), and a training run.  Pass 2: reordering driven by
    the profile, then finalization: cleanup reinvocation, delay-slot
    filling and validation.  {!run} and {!reoptimize} share one
    reordering step (the pass plus its {!Check.Verify} certificate) and
    one finalization step, so the server serves what the batch pipeline
    measures.  The original (non-reordered) version is finalized from
    the same optimized base and both are measured on the test input,
    with every configured branch predictor attached.

    The original depends on nothing after detection, so {!run} clones
    it then and finalizes and measures it on a second domain
    ({!Pool.both}) while the calling domain trains, reorders, finalizes
    and measures the reordered version.  Results are those of the
    sequential order, and a failed job reports the failure a sequential
    run meets first: train, reorder, finalize original, finalize
    reordered, measure original, measure reordered.

    The outputs of the two versions are compared; a mismatch raises
    [Failure] (it would mean the transformation changed semantics). *)

type version = {
  v_program : Mir.Program.t;
  v_static_insns : int;
  v_counters : Sim.Counters.t;
  v_output : string;
  v_exit_code : int;
  v_mispredicts : ((int * int * int) * int) list;
      (** per predictor configuration *)
  v_cycles : (string * int) list;  (** per cycle-model machine *)
}

type result = {
  r_name : string;
  r_config : Config.t;
  r_seqs : Reorder.Detect.t list;
  r_report : Reorder.Pass.report;
  r_verify : Check.Verify.summary option;
      (** translation-validation summary when {!Config.t.verify} is set
          (the pipeline has already failed if it contains errors) *)
  r_comb : (Reorder.Common_succ.run * Reorder.Common_succ.outcome) list;
  r_pairs : (Reorder.Common_succ.pair * Reorder.Common_succ.outcome) list;
      (** Figure 14(d)-(e) super-branch pairs, when [common_succ] is on *)
  r_stats : Reorder.Stats.t;
  r_original : version;
  r_reordered : version;
}

val sim_config : Config.t -> Sim.Machine.config
(** The simulator settings a config runs under: its [fuel] and
    [cancel], every other field at {!Sim.Machine.default_config}. *)

val compile_base : Config.t -> string -> Mir.Program.t
(** Front end + switch lowering + conventional optimizations (no
    reordering, no delay slots). *)

(** {2 Cache-aware entry points}

    The serving daemon ({!Server}) caches each stage's artifact by
    content hash and re-runs later stages alone — re-optimizing a
    program against merged live profiles must not re-parse or
    re-detect — so the batch pipeline's stages are also exposed one at
    a time.  {!run} is built from the same pieces. *)

val detect_seqs : Config.t -> Mir.Program.t -> Reorder.Detect.t list
(** Sequence detection on an optimized base, always with interval facts
    ([Reorder.Detect.find_program ~facts:true]).  The purely syntactic
    paper baseline is [Reorder.Detect.find_program ~facts:false], which
    [bench/main.exe detection] compares against. *)

val instrument : Config.t -> Mir.Program.t -> Reorder.Detect.t list ->
  Mir.Program.t * Sim.Profile.t
(** Clone the base and splice profiling pseudo-instructions at every
    sequence head; the returned table has a zeroed counter set
    registered per sequence (run the clone with [~profile] to fill it,
    or {!Sim.Profile.copy_shape} it into per-domain shards). *)

val reoptimize :
  Config.t -> name:string -> Mir.Program.t -> Reorder.Detect.t list ->
  Sim.Profile.t -> Mir.Program.t * Reorder.Pass.report
(** {!run}'s pass 2 without the training run: clone the base, run the
    reordering pass under [table]'s counts (translation-validating when
    {!Config.t.verify} is set), finalize (cleanup + delay slots) and
    validate, with the same steps {!run} uses.  Returns the servable
    program and the pass report.  It applies no common-successor
    rewrites and no profile-guided layout, which need {!run}'s
    detection and training input: it is the re-optimization step of a
    daemon that already owns live profiles.  Under settings without
    those two options its program equals {!run}'s [r_reordered] for the
    same base, sequences and table. *)

val measure : Config.t -> Mir.Program.t -> input:string -> version
(** Measure one finalized program on an input under the configured
    execution backend and report every configured predictor, in
    configured order.  The predictors run in one fresh
    {!Sim.Predictor.bank}.  A predictor with no history bits and at
    least {!Sim.Image.t.nsites} entries gives every branch site its own
    counter, so all such predictors of one counter width have the same
    tallies: only the first of them per width is simulated.  Predictors
    with history bits, and smaller tables, are each simulated. *)

val run :
  ?config:Config.t ->
  ?on_stage:(string -> float -> unit) ->
  name:string ->
  source:string ->
  training_input:string ->
  test_input:string ->
  unit ->
  result
(** [on_stage] is called after each pipeline stage with its name
    ([compile], [detect], [train], [reorder], [cleanup], [measure]) and
    its wall-clock duration in seconds (the [bromc --timings] hook).  It
    is only called from the calling domain, and the times are that
    domain's: [cleanup] finalizes the reordered version, and [measure]
    runs from the start of its measurement to the join with the domain
    measuring the original, so it includes any wait for it. *)

val pct : int -> int -> float
(** [pct original changed] is the percentage change, e.g. [-7.91]. *)

(** {2 Parallel measurement jobs}

    A [job] is a self-contained, pure description of one pipeline run:
    inputs are plain strings (force lazies before building jobs) and the
    pipeline touches no global mutable state, so jobs can execute on any
    domain.  {!run_jobs_guarded} fans them out over a bounded {!Pool}
    and returns outcomes in job order. *)

type job = {
  job_name : string;
  job_config : Config.t;
  job_source : string;
  job_training_input : string;
  job_test_input : string;
}

val job :
  ?config:Config.t ->
  name:string ->
  source:string ->
  training_input:string ->
  test_input:string ->
  unit ->
  job

(** {2 Guarded execution}

    The fault-tolerant runner: every job ends in a structured
    {!job_outcome} (never an exception), under a {!Guard.policy} of a
    per-attempt watchdog deadline plus backend graceful degradation —
    a job whose [`Native] attempt crashes (including
    {!Sim.Native.Unavailable}: no ocamlfind, codegen or dynlink
    failure) is run again under [`Compiled] and finally [`Reference]
    ({!Guard.ladder}, the ladder the server walks too), and the
    divergence is recorded.  Runs are deterministic, so a rung is never
    tried twice.  Traps and timeouts are final: they are
    properties of the simulated program and the deadline, identical on
    every backend, so degrading cannot help. *)

exception Wrong_result of string
(** Raised (and contained by the guard as a crash of its rung) when the
    post-run observables re-check fails: the reordered version's output
    or exit code diverged from the original's outside the pipeline's own
    internal comparison.  This is the detection layer for wrong-result
    faults. *)

type job_outcome = {
  o_index : int;       (** 0-based position in the submitted job list *)
  o_name : string;
  o_outcome : result Pool.outcome;
  o_attempts : int;    (** backend rungs tried, one attempt each *)
  o_retried : int;     (** [o_attempts - 1]: rungs walked past the first *)
  o_backend : string;  (** backend that produced the final outcome *)
  o_degraded : bool;   (** served by a lower rung than requested *)
  o_errors : string list;  (** one line per failed attempt, oldest first *)
  o_injected : string; (** {!Inject.kind_name} of a planted fault; [""] *)
  o_seconds : float;   (** wall clock across every rung tried *)
}

val run_guarded_job :
  ?fault:Inject.fault -> index:int -> policy:Guard.policy -> job -> job_outcome
(** Run one job in the calling domain under the full containment stack.
    [fault] (tests and the [--inject] harness) is armed only on the
    job's requested backend, so degradation recovers a [Raise] or
    [Corrupt] fault on the next rung. *)

val run_jobs_guarded :
  ?domains:int ->
  ?policy:Guard.policy ->
  ?inject:Inject.fault list ->
  job list ->
  job_outcome list
(** Fan {!run_guarded_job} over a bounded {!Pool}; job order is
    preserved whatever the schedule, [domains] defaults to
    {!Pool.default_domains}, and no job's failure can abort or disturb
    a sibling. *)

type containment = {
  c_planted : int;
  c_recovered : int;  (** victims that still ended [ok] *)
  c_contained : int;  (** victims that did not *)
  c_escapes : string list;  (** victims [ok] but not degraded: no trace *)
  c_collateral : string list;  (** non-victims that did not end [ok] *)
}

val containment : Inject.fault list -> job_outcome list -> containment
(** The verdict on a fault-injected run ([suite --inject]), from its
    faults and its outcomes in job order: contained when [c_escapes] and
    [c_collateral] are empty. *)
