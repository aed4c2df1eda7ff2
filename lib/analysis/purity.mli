(** Per-block side-effect summaries.

    Answers, with a reason, the question the sequence detector and the
    lint explanations both ask: "can this block's body be duplicated
    onto edges / skipped on some paths without changing observable
    behaviour?"  An effect is anything beyond writing local registers
    and the condition code: a memory store, a call (I/O, global state,
    possible non-termination), or an instruction that may trap.

    Interval facts refute trap effects: a [Div]/[Rem] whose divisor's
    interval excludes 0 cannot trap and is dropped from the summary. *)

type effect =
  | Store of string  (** writes global [sym] *)
  | Io of string  (** calls [callee] *)
  | May_trap of string  (** description, e.g. "div by possibly-zero r3" *)

val effects : ?intervals:Intervals.t -> Mir.Block.t -> effect list
(** Effects of the block's body and delay slot, in instruction order. *)

val pure : ?intervals:Intervals.t -> Mir.Block.t -> bool

val describe : effect list -> string
(** Human-readable one-line summary, e.g.
    ["stores to counts; calls put_char"] — ["pure"] when empty. *)
