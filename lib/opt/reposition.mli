(** Code repositioning: orders blocks so that fall-through edges are
    physically adjacent, minimising the unconditional jumps the assembled
    code executes (the paper reinvokes this after reordering).

    Greedy chain layout: starting from the entry, each placed block is
    followed by its preferred fall-through successor when that block is
    still unplaced; otherwise the next unplaced block in the current
    order starts a new chain.  The entry block always stays first.

    The preferred successor is the not-taken arm of a branch, the target
    of a jump, or a switch's default.  Given per-block branch counts
    measured on a training run, the layout is profile-guided (cf. Calder
    & Grunwald 1994, cited by the paper as the complementary technique
    that changes which branches are taken rather than how many execute):
    a branch whose taken arm ran more often is inverted so that arm
    falls through.  Blocks without counts keep the static preference. *)

type counts = (string, int * int) Hashtbl.t
(** label of the branch's block -> (taken, not-taken) executions. *)

val run_func : ?counts:counts -> Mir.Func.t -> bool
(** Lay out one function; [true] when the block order changed.  Without
    [counts] every branch keeps the static preference. *)

val run_profiled : Mir.Program.t -> (string, counts) Hashtbl.t -> bool
(** Profile-guided layout of every function with a counts table (outer
    table keyed by function name); functions without one are left as
    they are. *)
