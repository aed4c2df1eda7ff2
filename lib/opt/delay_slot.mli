(** Delay-slot filling (the final pass, as in the paper's Figure 2).

    Each emitted control transfer carries one delay slot.  The filler
    hoists the last instruction of the block into the slot when it is
    safe: not a compare (the branch and any fall-through consumer need the
    condition codes), not a call or profiling pseudo, and not a definition
    of a register the terminator itself reads.  An instruction moved into
    a branch delay slot executes on both outcomes — which is exactly what
    it did in its original position above the branch, so semantics are
    preserved (the "fill from above" strategy; the paper notes vpo can
    also fill from a successor, which this pass does not attempt).

    A second phase fills slots that phase one could not: the first
    instruction of a single-predecessor *taken target* is hoisted into
    the slot with the SPARC annul bit set (the instruction executes only
    when the branch is taken — exactly where it originally ran), and
    jump targets are stolen from the same way without annulment.  A
    branch whose two arms name the same block is not filled this way:
    that block runs on both outcomes.  This is vpo's "fill from the
    successor", whose interaction with reordering the paper discusses
    for hyphen.

    Jumps that will fall through in the current layout assemble to
    nothing, so their slots are not filled; run this after
    {!Reposition}. *)

val run_func : ?steal:bool -> Mir.Func.t -> int
(** Returns the number of slots filled.  [steal] (default true) enables
    the fill-from-successor phase. *)

val run : ?steal:bool -> Mir.Program.t -> int

val strip_func : Mir.Func.t -> unit
(** Move any filled delay slots back into block bodies (used before
    re-running other passes). *)

val strip : Mir.Program.t -> unit
