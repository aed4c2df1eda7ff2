(** Applying the reordering transformation (Section 8, Figure 10).

    A replicated sequence of range conditions in the selected order is
    spliced in after the head: the head block keeps its leading
    instructions and jumps to the replica; intervening side effects are
    duplicated onto the exit edges that would have executed them in the
    original order (Theorem 2); the original condition blocks survive
    only where they remain reachable from other entries (dead-code
    elimination removes the rest, as in Figure 10(e)).

    Post-selection improvements (Section 7):
    - within a Form 4 condition the bound more likely to disprove the
      range is tested first, judged from the remaining ranges' counts;
    - redundant comparisons between adjacent conditions are eliminated,
      including the Figure 9 constant renormalisation ([cmp v,c+1; bge]
      becoming [cmp v,c; bg] so a following [cmp v,c] can be dropped).

    Exit edges whose target consumes the condition codes (a compare-less
    branch block, as the binary-search lowering produces) receive an
    explicit compare reestablishing the codes the original path
    guaranteed.

    The default target's code can be duplicated into the fall-through
    position (up to [tail_dup_limit] instructions, terminator [Jmp] or
    [Ret] only) to avoid the extra unconditional jump, as the paper does
    for targets with a fall-through predecessor. *)

type options = {
  tail_dup_limit : int;  (** 0 disables tail duplication *)
  improve_cmp : bool;    (** Figure 9 redundant comparison elimination *)
  improve_form4 : bool;  (** Section 7 bound-order improvement *)
}

val default_options : options

type applied = {
  replica_entry : string;
  new_block_count : int;
  final_branches : int;   (** branches in the replicated sequence *)
  final_items : int;      (** explicitly tested ranges *)
  cmps_eliminated : int;
}

type outcome =
  | Applied of applied
  | Skipped of string  (** reason; the function is left unchanged *)

val compatible_for :
  ?cc:Analysis.Cc_live.t ->
  Mir.Func.t ->
  Detect.t ->
  Select.input_item list ->
  bool
(** The elimination-set compatibility predicate to pass to selection:
    all eliminated ranges must agree on the side effects and condition
    codes their shared default edge must provide.  [cc] memoises the
    condition-code liveness analysis of the function (selection calls
    this predicate many times per sequence); it is computed on the fly
    when absent. *)

val strip_last_cmp : Mir.Block.t -> bool
(** Remove the block's last compare wherever it sits, keeping the
    instructions after it; [false] (and the block untouched) when it has
    none. *)

val apply_seq :
  Mir.Func.t -> Detect.t -> Select.choice -> options -> outcome
