(** Structured diagnostics from the dataflow facts.

    Four families, all proved (not guessed) from {!Intervals} and the
    exact {!Iset} arm walk — soundness matters because the fuzzer
    cross-checks every verdict against reference-interpreter traces:

    - {e unreachable blocks}: syntactically reachable, but every path
      into them crosses an infeasible branch edge;
    - {e decidable branches}: the interval facts prove a [Br] one-way;
    - {e subsumed arms}: a range-test arm in a compare chain whose test
      can never be satisfied by the values still flowing past the
      earlier arms;
    - {e overlapping arms}: an arm whose test set intersects values
      already claimed by earlier arms (part of its nominal range is
      dead, though the arm itself still fires).

    The [Not_reorderable] kind is produced by [Reorder.Explain], which
    reuses this diagnostic type so the lint driver can present one
    merged report. *)

type kind =
  | Unreachable_block
  | Branch_always_taken
  | Branch_never_taken
  | Subsumed_arm
  | Overlapping_arms
  | Not_reorderable
  | Prediction_diverges
      (** the static heuristics ({!Heur}) and a supplied trained profile
          disagree on a branch's likely direction; advisory (produced
          only by {!divergence}, never by {!check_func}) *)

type diag = {
  func : string;
  label : string;  (** block the diagnostic anchors to *)
  kind : kind;
  message : string;
}

val kind_name : kind -> string
(** Stable kebab-case identifier, e.g. ["subsumed-arm"] (used in JSON
    output and tests). *)

val check_func : Mir.Func.t -> Intervals.t -> diag list
val check_program : Mir.Program.t -> diag list
(** Runs {!Intervals.analyze} per function; diagnostics in layout
    order. *)

val divergence :
  Mir.Program.t ->
  observed:(func:string -> label:string -> (int * int) option) ->
  diag list
(** [Prediction_diverges] diagnostics: two-way branches where the fused
    static prediction and an observed (taken, not-taken) count pair
    firmly point in opposite directions.  [observed] supplies the
    trained counts per branch block ([None] = unobserved); branches with
    fewer than 8 observations are skipped, and both the predicted and
    the measured probability must sit at least 0.1 away from the coin
    flip. *)

val pp_diag : Format.formatter -> diag -> unit
val to_json : diag list -> string
(** A JSON array of [{func, label, kind, message}] objects. *)
