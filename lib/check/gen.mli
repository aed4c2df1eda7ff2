(** Random-program generators for the correctness tooling.

    Two generator families live here:

    - the {b MiniC dispatch corpus}: source-level dispatch and switch
      programs plus small random CFGs, shared between the property tests
      ([test/test_properties.ml]) and any caller that wants source-level
      fuzz — extracted here so the test suite and the fuzzer draw from
      one corpus;
    - the {b MIR spec corpus}: structured descriptions of whole
      {!Mir.Program.t} values biased toward the shapes the reordering
      pass cares about — runs of range conditions on one variable in all
      four forms of Table 1 (plus the [!=] reading), intervening side
      effects, shared entries into the middle of a chain, and switch
      statements that {!Mopt.Switch_lower} turns into comparison
      sequences under all three heuristic sets.

    All generators are seeded QCheck2 generators; {!sample} and
    {!spec_of_seed} give deterministic draws.  {!shrink_spec} is the
    fuzzer's shrinker: it deletes conditions, switch cases, side effects
    and input bytes while the caller's predicate stays true, and every
    shrunk spec still builds a program that {!Mir.Validate.check}
    accepts (specs can only describe well-formed programs). *)

(** {2 MiniC dispatch corpus} *)

type cond =
  | Ceq of int
  | Cne of int
  | Clt of int
  | Cle of int
  | Cgt of int
  | Cge of int
  | Cbetween of int * int


type dispatch = {
  conds : (cond * bool) list;  (** condition, side effect before it *)
  train : string;
  test : string;
}

val dispatch_source : dispatch -> string
(** Render as a MiniC program: [f] dispatches on the conditions, [main]
    hashes [f] over the input bytes and prints the hash and the
    side-effect counter. *)

val print_dispatch : dispatch -> string
val gen_dispatch : dispatch QCheck2.Gen.t

val switch_source : int list -> string
(** A MiniC program switching on every input byte with the given case
    values. *)

val gen_switch_values : (int list * string) QCheck2.Gen.t
(** Case-value list (dense or strided) plus an input string. *)

val print_switch_values : int list * string -> string

val gen_cfg : (int * (int * int) list) QCheck2.Gen.t
(** Random small CFG spec: block count and per-block (taken, fall)
    target indices; block 0 is the entry, the last block returns. *)

val build_cfg : int * (int * int) list -> Mir.Func.t
val print_cfg : int * (int * int) list -> string

(** {2 MIR-level specs for the fuzzer} *)

type form =
  | F_eq of int            (** Form 1, [v = c] *)
  | F_ne of int            (** Form 1 through the [!=] reading *)
  | F_le of int            (** Form 2, [v <= c] *)
  | F_ge of int            (** Form 3, [v >= c] *)
  | F_between of int * int (** Form 4, [c1 <= v <= c2] *)

type cond_spec = {
  cs_form : form;
  cs_side : bool;  (** update a global before testing this condition *)
}

type seq_spec = {
  sq_conds : cond_spec list;  (** tested in order; nonoverlapping ranges *)
  sq_extra_entry : bool;
      (** add a second entry jumping into the middle of the chain, so a
          condition block has two predecessors (shared entries) *)
}

type switch_spec = {
  sw_cases : (int * int) list;  (** (case value, returned constant) *)
}

type spec = {
  sp_seq : seq_spec;
  sp_switch : switch_spec option;
  sp_heuristic : int;  (** 0, 1, 2 = heuristic set I, II, III *)
  sp_train : string;
  sp_test : string;
}

val heuristic_of_spec : spec -> Mopt.Switch_lower.heuristic_set

val to_program : spec -> Mir.Program.t
(** Build the whole program: a dispatch function [f] implementing the
    condition chain, an optional switch function [s] (with an unlowered
    [Switch] terminator), and a [main] that hashes both over the input
    bytes.  The result passes [Mir.Validate.check ~allow_switch:true]. *)

val forms : spec -> form list
(** The range-condition forms the spec exercises (coverage tallying). *)

val pp_spec : Format.formatter -> spec -> unit
val show_spec : spec -> string

val gen_spec : spec QCheck2.Gen.t
val spec_of_seed : int -> spec
(** Deterministic: [spec_of_seed s] draws {!gen_spec} from a fresh
    PRNG state seeded with [s]. *)

val sample : seed:int -> n:int -> 'a QCheck2.Gen.t -> 'a list
(** [n] deterministic draws from one seeded PRNG state. *)

val shrink_spec : keep:(spec -> bool) -> spec -> spec
(** Greedy minimization: repeatedly drop the switch, switch cases, the
    extra entry, conditions, side effects and halves of the inputs,
    keeping a change only when [keep] still holds.  [keep] is assumed to
    hold for the input spec. *)
