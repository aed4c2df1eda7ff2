(** Reordering sequences of branches with a common successor
    (paper Section 10, Figure 14 — described there as future work).

    A run is a chain of blocks [B1; ...; Bk], each containing exactly one
    compare (of any registers, not necessarily a common variable) and a
    conditional branch with one edge to a shared block CS and the other
    edge to the next block in the chain; the last block's other edge goes
    to F.  Such a run computes a short-circuit disjunction: control
    reaches CS iff some condition holds, F otherwise, and because the
    bodies are pure compares, any permutation is semantically equivalent.

    Profiling records the full outcome combination vector (one counter per
    2^k mask, as the paper prescribes, k <= 7); the expected-cost-optimal
    permutation is found exhaustively and the blocks' contents are
    permuted in place.  Unlike range conditions, outcomes are not
    mutually exclusive, so per-branch probabilities are insufficient and
    the combination counts are what the cost function integrates over. *)

type run = {
  cs_id : int;
  cs_func : string;
  labels : string list;        (** chain blocks in original order *)
  common_succ : string;
  final_fail : string;         (** where the last block's other edge goes *)
  conds : (Mir.Cond.t * Mir.Operand.t * Mir.Operand.t) array;
      (** normalised so condition true = branch to [common_succ] *)
  costs : int array;           (** instructions per block (compare + branch) *)
}

val find_func :
  ?exclude:(string -> bool) -> next_id:int ref -> Mir.Func.t -> run list

val find_program :
  ?exclude:(string -> bool) -> ?first_id:int -> Mir.Program.t -> run list

val instrument : Mir.Program.t -> run list -> Sim.Profile.t -> unit
(** Registers combination tables in the given profile store and inserts
    {!Mir.Insn.Profile_comb} at each run's head. *)

val best_permutation : counts:int array -> costs:int array -> int array
(** Expected-cost-minimising order (indices into the original run). *)

val expected_cost : counts:int array -> costs:int array -> int array -> int
(** Scaled expected cost of executing the run in the given order:
    sum over masks of count(mask) x instructions until the first
    satisfied condition (or all, when none holds). *)

type outcome =
  | Reordered of int array  (** the permutation applied *)
  | Unchanged of string

(** {2 Sequences as super-branches (Figure 14(d)-(e))}

    Two adjacent runs form a {i pair} when the first run's common
    successor is the second run's head (an [||] of two [&&] groups
    lowers to exactly this), both runs continue to the same block when
    no condition escapes, and the second run is entered only from the
    first.  Viewing each run as a single branch, the pair may be
    swapped — the escape disjunction is commutative — and a joint
    2^(n1+n2) combination profile decides whether testing the second
    group first is cheaper. *)

type pair = {
  pr_id : int;
  pr_first : run;
  pr_second : run;
}

val find_pairs : Mir.Program.t -> run list -> first_id:int -> pair list

val instrument_pairs : Mir.Program.t -> pair list -> Sim.Profile.t -> unit
(** Registers the joint combination table and inserts one
    {!Mir.Insn.Profile_comb} at the first run's head. *)

val pair_cost : counts:int array -> first:run -> second:run -> swapped:bool -> int
(** Scaled expected instructions to execute the two groups in the given
    order, integrating over the joint outcome masks (bit i = condition i
    of [first.conds @ second.conds] holds). *)

val apply_pair : Mir.Program.t -> Sim.Profile.t -> pair -> outcome
(** Swaps the groups in place (edge relinking only) when the joint
    profile says the second group should run first.  Returns
    [Reordered [|1; 0|]] on a swap. *)

val apply : Mir.Program.t -> Sim.Profile.t -> run -> outcome
(** Permutes the run's blocks in place when the best order differs from
    the original.  Requires every non-head block to have a single
    predecessor (checked; otherwise skipped). *)
