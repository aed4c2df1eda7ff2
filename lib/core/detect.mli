(** Detection of reorderable sequences of range conditions
    (paper Section 3, Figure 4).

    A sequence is a path of blocks, each testing the same register against
    constants, linked by "continue" edges; every tested range exits to a
    target outside the path.  Detection understands:

    - single-branch conditions ([==], [!=], [<], [<=], [>], [>=]), with
      both interpretations of a relational branch (the taken-side range
      [R] and the fall-through-side range [I] of Figure 4);
    - Form 4 bounded ranges spanning two compare/branch blocks with a
      common "out" successor;
    - branches that reuse the condition codes of the preceding compare
      (the shape the binary-search switch translation and the Figure 9
      redundant-comparison elimination produce); their constant is
      inherited along the path;
    - intervening side effects: instructions preceding a condition's
      compare are recorded on the item and later duplicated onto exit
      edges (Theorem 2).  An instruction that redefines the branch
      variable ends the sequence, as do calls (a callee could read or
      write any global the targets use only through memory, which is
      safe, but we follow the paper and treat only register effects as
      transparent; calls are kept as ordinary side effects).

    Blocks join at most one sequence (marking, as in Figure 4); detection
    is deterministic in layout order. *)

type item = {
  range : Range.t;
  target : string;      (** label control exits to when the range matches *)
  orig_pos : int;       (** 1-based position in the original sequence *)
  item_blocks : string list;
      (** blocks implementing the condition (two for Form 4) *)
  sides : Mir.Insn.t list;
      (** side effects executed immediately before this condition
          (leading instructions of its first block; empty for the head) *)
  exit_cc_const : int;
      (** constant of the last compare executed on the original exit edge
          (needed when the target consumes the condition codes) *)
  exit_cc_swapped : bool;
      (** the exit compare was [cmp #c, var]: the cc pair it leaves is
          [(const, var)], so reestablishment must keep that operand
          order *)
  had_own_cmp : bool;
      (** false when the condition reused the preceding compare *)
}

type t = {
  seq_id : int;
  func_name : string;
  var : Mir.Reg.t;
  head : string;                 (** label of the first condition's block *)
  items : item list;             (** original order *)
  default_target : string;       (** continue label after the last condition *)
  default_cc_const : int option; (** condition codes on the default edge *)
}

val in_bounds : int -> bool
(** A compare constant strictly inside the representable range, so
    both of a relational branch's ranges are non-empty. *)

val defines_var : Mir.Reg.t -> Mir.Insn.t -> bool

val split_last_cmp :
  Mir.Insn.t list ->
  (Mir.Insn.t list * Mir.Operand.t * Mir.Operand.t * Mir.Insn.t list) option
(** Split at the last compare whose condition codes reach the
    terminator: [Some (pre, a, b, post)], [None] when there is none or a
    call after it clobbers the codes. *)

val has_call : Mir.Block.t -> bool

val items_count : t -> int
val branches : t -> int
(** Conditional branches the original sequence contains. *)

val explicit_ranges : t -> Range.t list
val default_ranges : t -> Range.t list
(** Minimal cover of the values no explicit range tests (Section 5). *)

val pp : Format.formatter -> t -> unit

val find_func :
  ?min_len:int ->
  ?facts:Analysis.Intervals.t ->
  next_id:int ref ->
  Mir.Func.t ->
  t list
(** Sequences in layout order; [min_len] (default 2) is the minimum item
    count.  [next_id] supplies and advances sequence ids.

    With [facts] (interval analysis of the same function) detection
    admits sequences the syntactic walk rejects: blocks whose compare is
    followed by further (cc-preserving, variable-preserving)
    instructions; register compares whose other operand the facts pin to
    a constant; and overlapping candidate ranges narrowed to the values
    the facts prove can actually reach the test. *)

val find_program : ?min_len:int -> ?facts:bool -> Mir.Program.t -> t list
(** [facts] (default [false]) runs {!Analysis.Intervals.analyze} on each
    function and hands the result to {!find_func}. *)
