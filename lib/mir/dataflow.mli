(** Generic worklist dataflow engine over a function's CFG.

    One engine serves every analysis in the tree: {!Liveness} (backward
    may), [Analysis.Intervals] (forward with branch-edge refinement and
    widening), [Analysis.Cc_live] and the optimizer's
    [Mopt.Global_const] (forward must).  The solver maps labels to
    block indices once and keeps edges, facts and visit counts in
    arrays; the API stays in labels.  A problem is a first-class
    record — no functor ceremony — parameterized by the
    lattice ([bottom]/[join]/[equal]), the block transfer function, an
    optional per-edge refinement (forward only: the fact flowing from a
    branch can be sharpened differently on the taken and the not-taken
    edge), and an optional widening operator applied once a block has
    been revisited [widen_after] times, which guarantees termination on
    lattices with infinite ascending chains (intervals).

    When widening is used, the solver follows the ascending phase with
    two bounded descending (narrowing) sweeps: the stabilized state is a
    post-fixpoint, so recomputing the equations without widening soundly
    recovers bounds the climb overshot — a loop body refined by its exit
    test keeps the refinement instead of the widened infinity.

    Conventions:
    - facts live on block boundaries; [fact_in] is the fact at block
      {b entry}, [fact_out] at block {b exit}, for both directions;
    - forward: [fact_in b] is the join over predecessors [p] of
      [edge p b (fact_out p)], and [fact_out b = transfer b (fact_in b)];
      the entry block additionally joins [boundary];
    - backward: [fact_out b] is the join over successors [s] of
      [fact_in s], and [fact_in b = transfer b (fact_out b)]; blocks
      without successors additionally join [boundary];
    - blocks never reached by the iteration keep [bottom] (for a forward
      must-analysis this is exactly "unreachable"). *)

type direction = Forward | Backward

type 'fact problem = {
  direction : direction;
  boundary : 'fact;  (** fact at the entry (forward) / at every exit (backward) *)
  bottom : 'fact;  (** join identity; initial fact everywhere *)
  join : 'fact -> 'fact -> 'fact;
  equal : 'fact -> 'fact -> bool;
  transfer : Block.t -> 'fact -> 'fact;
  edge : (Block.t -> string -> 'fact -> 'fact) option;
      (** forward only: [edge src dst_label fact] refines the fact
          flowing along the [src -> dst] edge; ignored when backward *)
  widen : ('fact -> 'fact -> 'fact) option;
      (** [widen old new] replaces [join] at a block input once the
          block has been recomputed [widen_after] times *)
  widen_after : int;  (** visits before widening kicks in (if [widen]) *)
}

type 'fact result

val solve : 'fact problem -> Func.t -> 'fact result

val fact_in : 'fact result -> string -> 'fact
(** Fact at entry of the labelled block; [bottom] for unknown labels. *)

val fact_out : 'fact result -> string -> 'fact
(** Fact at exit of the labelled block; [bottom] for unknown labels. *)

val iterations : 'fact result -> int
(** Blocks recomputed in total — a determinism/termination probe for
    tests (the worklist is seeded and drained in deterministic order). *)
