(** Dominators and postdominators on {!Mir} functions.

    One Cooper–Harvey–Kennedy engine over an abstract successor
    function: {!compute} instantiates it on the forward CFG (dominators,
    the same verdicts as the verifier's historical ad-hoc walk),
    {!compute_post} on the reversed CFG rooted at a virtual exit whose
    reverse successors are every reachable [Ret] block (postdominators).
    Labels outside the analyzed region — unreachable blocks forward,
    blocks that cannot reach an exit backward — are simply absent:
    {!dominates} answers [false], {!idom} and {!dominators} answer
    nothing. *)

type t

val compute : Mir.Func.t -> t
(** Dominators; the entry dominates everything reachable. *)

val compute_post : Mir.Func.t -> t
(** Postdominators.  [dominates t a b] then reads "[a] postdominates
    [b]".  The root is {!virtual_exit}. *)

val virtual_exit : string
(** The synthetic root of the reversed CFG (["<exit>"]; not a valid MIR
    label, so it can never collide). *)

val idom : t -> string -> string option
(** Immediate dominator; [None] for the root and unanalyzed labels. *)

val dominates : t -> string -> string -> bool
(** [dominates t a b]: every path from the root to [b] passes through
    [a].  Reflexive; [false] when either label is unanalyzed. *)

val dominators : t -> string -> string list
(** The dominator chain of a label, from the label itself up to the
    root (label first); [[]] for unanalyzed labels. *)

val known : t -> string -> bool
(** The label was reached by the analysis (reachable in the analyzed
    direction). *)
