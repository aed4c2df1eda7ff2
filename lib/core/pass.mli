(** The complete branch-reordering pass.

    Orchestrates, for every detected sequence: reading back training
    counts, assembling the selection problem (explicit plus default
    ranges), choosing the cheapest ordering, and applying the
    transformation when it changes anything.  Matches the paper's
    pipeline (Figure 2): the caller profiles an instrumented clone first
    and passes the filled table here. *)

type outcome =
  | Reordered of Apply.applied
  | Coalesced of Coalesce.plan
      (** replaced by an indirect jump instead (profile-guided decision
          against the configured machine's cost model, the paper's
          Section 9 suggestion) *)
  | Unchanged of string  (** reason: never executed, already optimal, ... *)

type seq_report = {
  sr_seq : Detect.t;
  sr_total : int;                 (** training executions of the head *)
  sr_choice : Select.choice option;
  sr_outcome : outcome;
  sr_orig_branches : int;         (** branches in the original sequence *)
  sr_final_branches : int;        (** after reordering (= original when unchanged) *)
}

type report = { seq_reports : seq_report list }

val reordered_count : report -> int
val coalesced_count : report -> int
val detected_count : report -> int

val choose :
  ?selector:[ `Greedy | `Exhaustive ] ->
  ?keep_original_default:bool ->
  Mir.Func.t ->
  Detect.t ->
  Profiles.counts_view ->
  Select.choice option
(** The selection rule for one sequence of [fn] under its training
    counts: the candidate items of {!Profiles.select_input}, filtered
    by condition-code compatibility (and, with [keep_original_default],
    by eliminating only ranges of the original default target), solved
    greedily (Figure 8) or exhaustively (falling back to greedy beyond
    14 items).  [None] when no compatible ordering exists.  {!run} and
    {!Drift} both select through this function. *)

val run :
  ?options:Apply.options ->
  ?selector:[ `Greedy | `Exhaustive ] ->
  ?keep_original_default:bool ->
  ?coalesce_machine:Sim.Cycle_model.params ->
  Mir.Program.t ->
  Detect.t list ->
  Sim.Profile.t ->
  report
(** Transforms [program] in place (clone it first if the original is
    needed).  Sequences whose best ordering equals the original, or that
    were never executed in training, are left untouched.  The caller
    should run {!Mopt.Cleanup} afterwards, as the paper reinvokes its
    cleanup optimizations. *)

val pp_report : Format.formatter -> report -> unit
