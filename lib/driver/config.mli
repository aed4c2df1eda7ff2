(** Pipeline configuration. *)

type t = {
  heuristic : Mopt.Switch_lower.heuristic_set;
      (** switch translation heuristic set (paper Table 2) *)
  selector : [ `Greedy | `Exhaustive ];
      (** ordering selection algorithm (Figure 8 vs full subset search) *)
  apply_options : Reorder.Apply.options;
  common_succ : bool;       (** also reorder common-successor runs (Sec. 10) *)
  profile : [ `Trained | `Static | `Both ];
      (** profile source (default [`Trained], the paper's baseline).
          [`Static] skips the training run entirely and synthesizes the
          counts with {!Reorder.Profiles.of_static} (heuristic branch
          probabilities + frequency propagation); [`Both] trains and
          then backfills sequences the training input never exercised
          with the static prediction.  Common-successor profiling needs
          a training run, so with [`Static] those rewrites degrade to
          [Unchanged] *)
  keep_original_default : bool;
      (** ablation: restrict the default target to the original one *)
  coalesce_machine : Sim.Cycle_model.params option;
      (** when set, each sequence may instead be coalesced into an
          indirect jump if that is cheaper under this machine's cost
          model (the paper's Section 9 suggestion, via [UhW97]) *)
  delay_fill_from_target : bool;
      (** fill remaining delay slots from the taken successor with the
          annul bit (vpo's strategy; ablation toggle) *)
  profile_layout : bool;
      (** lay out both versions with training-run branch frequencies
          (Calder-Grunwald-style placement; an ablation, not part of the
          paper's baseline) *)
  predictors : (int * int * int) list;
      (** (history bits, counter bits, entries) simulated on every run *)
  validate : bool;          (** run the MIR validator after every stage *)
  verify : bool;
      (** translation-validate every sequence rewrite with
          {!Check.Verify} right after the reordering pass (before any
          later cleanup reshapes the blocks); a rejected rewrite fails
          the pipeline *)
  fuel : int;               (** simulator instruction budget per run *)
  backend : Sim.Machine.backend;
      (** execution engine for the training and measurement runs
          (default [`Compiled]; all three are observably identical, so
          this only changes wall-clock time — but [`Native] needs a
          working ocamlfind toolchain and otherwise degrades down the
          {!Guard.ladder}) *)
  native_cache_dir : string option;
      (** [.cmxs] artifact store for the native backend ([None] =
          {!Sim.Native.Cache.default_dir}) *)
  cancel : (unit -> bool) option;
      (** cooperative cancellation flag threaded into every simulator
          run (polled once per basic block); typically a
          {!Sim.Runtime.watchdog}.  [None] (the default) costs
          nothing. *)
}

val default : t

val backend_name : Sim.Machine.backend -> string
(** {!Sim.Machine.backend_name}: the stable tag used in outcomes and
    reports. *)

val rungs : t -> Sim.Machine.backend list
(** The degradation ladder of the configured backend, fastest first:
    native → compiled → reference, starting at [backend].  {!Guard.ladder}
    walks it, for the batch jobs ({!Pipeline.run_guarded_job}) and the
    server alike. *)

val profile_name : [ `Trained | `Static | `Both ] -> string
(** Stable machine-readable tag ("trained" / "static" / "both"). *)

val profile_of_name : string -> [ `Trained | `Static | `Both ] option
(** Inverse of {!profile_name}; [None] on unknown tags. *)

val paper_predictors : (int * int * int) list
(** The (0,1) and (0,2) predictors with 32..2048 entries of Table 6
    (which includes Table 5's (0,2)x2048). *)
