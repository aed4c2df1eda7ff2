(** Translation validation for the reordering pass.

    Given the program {b before} and {b after} {!Reorder.Pass.run} (and
    the pass's report), independently certify every rewritten sequence —
    without re-running selection.  For a reordered sequence the replica
    chain is interpreted abstractly over sets of integer intervals: the
    walk from the replica entry splits the full integer line at every
    compare/branch, and each leaf edge must land on the target the {b
    original} sequence assigns to those values (Theorem 3's partition
    semantics), carrying exactly the side effects the original path
    would have executed by then (Theorem 2) and reestablishing the
    condition codes any compare-less target consumes.  Coalesced
    sequences are certified by enumerating the jump table against the
    original partition.  On top of the per-sequence checks, the whole
    program is re-validated ({!Mir.Validate}), every block the pass had
    no business touching is required to be instruction-for-instruction
    identical, and dominator sanity of the spliced chain is checked with
    {!Analysis.Dom}.

    What this certifies: the range → target partition, duplicated side
    effects, condition-code reestablishment, default-target complement
    semantics, and CFG well-formedness.  What it does {b not} certify:
    that the chosen order is profitable (that is selection's job, tested
    separately) and the behaviour of code outside detected sequences
    (covered by differential execution in {!Fuzz}). *)

type seq_result = {
  v_seq_id : int;
  v_func : string;
  v_kind : [ `Reordered | `Coalesced | `Unchanged ];
  v_pieces : int;
      (** partition pieces certified (leaf edge x original range) *)
  v_errors : string list;  (** empty = certified *)
}

type summary = {
  seq_results : seq_result list;
  global_errors : string list;
      (** structural problems: blocks modified outside any sequence,
          validation or dominator failures, missing functions *)
}

val ok : summary -> bool

val all_errors : summary -> string list
(** Every error, prefixed with its sequence (or "program"). *)

val certify_report :
  ?allow_switch:bool ->
  before:Mir.Program.t ->
  after:Mir.Program.t ->
  Reorder.Pass.report ->
  summary
(** [before] must be the pre-pass program (the pass mutates in place, so
    callers clone first — as the pipeline already does), [after] the
    program {!Reorder.Pass.run} transformed, {b before} any later
    cleanup reshapes the blocks. *)

val pp_summary : Format.formatter -> summary -> unit

(** {2 Chain introspection}

    Exposed for {!Fuzz}'s bug-injection mode, which must plant its bug on
    an edge the program can actually take: a chain edge whose abstract
    value set is empty is dead, and retargeting it is semantically
    invisible — the verifier would rightly accept it and the injection
    run would be vacuous. *)

val live_leaf_edges :
  fn_before:Mir.Func.t ->
  fn_after:Mir.Func.t ->
  var:Mir.Reg.t ->
  entry:string ->
  (string * [ `Taken | `Fall ] * string) list
(** All [(chain_block, direction, successor)] edges of the replica chain
    rooted at [entry] that carry a nonempty value set and leave the
    chain (the successor is not itself a chain block), in discovery
    order.  Empty if the chain is malformed. *)

val resolve : Mir.Func.t -> string -> string
(** Follow empty forwarding blocks ([Jmp]-only, no delay slot, no
    instructions) to the label a jump really lands on. *)
