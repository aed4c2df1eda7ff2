(** Basic blocks and terminators.

    A block is a label, a list of straight-line instructions and exactly one
    terminator.  Fall-through is explicit: a conditional branch names both
    its taken and its not-taken successor, and the code-layout pass decides
    which successors become physical fall-throughs (the simulator charges an
    extra jump instruction when a not-taken edge does not fall through; see
    {!Layout}). *)

type term_kind =
  | Br of Cond.t * string * string
      (** [Br (c, taken, not_taken)]: conditional branch on the condition
          codes set by the dominating [Cmp]. *)
  | Jmp of string
  | Switch of Reg.t * (int * string) list * string
      (** front-end pseudo terminator: value, (case, target) list, default.
          Must be lowered by {!Mopt.Switch_lower} before simulation. *)
  | Jtab of Reg.t * int
      (** [Jtab (r, tbl)]: indirect jump through jump table [tbl] of the
          enclosing function; [r] must be in-bounds (the switch lowering
          emits the bounds check). *)
  | Ret of Operand.t option

type term = {
  kind : term_kind;
  mutable delay : Insn.t option;
      (** SPARC-style delay slot, filled by {!Mopt.Delay_slot}; [None]
          means an architectural nop occupies the slot. *)
  mutable annul : bool;
      (** SPARC "branch,a": the delay instruction executes only when the
          branch is taken (used when the slot was filled by stealing the
          taken target's first instruction). *)
}

type t = {
  label : string;
  mutable insns : Insn.t list;
  mutable term : term;
}

val make : label:string -> Insn.t list -> term_kind -> t
val term : term_kind -> term

val successors : jtab:(int -> string array) -> t -> string list
(** Successor labels in deterministic order (taken before not-taken);
    [jtab] resolves jump-table ids to their target arrays. *)

val retarget_term : term -> from:string -> into:string -> term
(** The terminator with every edge to [from] sent to [into] instead
    (a jump table's targets are left alone). *)

val equal_term_kind : term_kind -> term_kind -> bool
val pp : Format.formatter -> t -> unit

val static_insn_count : layout_next:string option -> t -> int
(** Number of machine instructions the block assembles to, given the label
    of the block laid out immediately after it: body instructions plus the
    terminator (a [Jmp] to the fall-through block assembles to nothing; any
    emitted branch or jump also occupies one delay slot, counted here as an
    instruction whether filled or nop). *)
