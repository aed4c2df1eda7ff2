(** Pre-decoded execution image.

    A one-time lowering of a {!Mir.Program.t} into flat arrays for the
    simulator's fast backends: every label becomes an integer block index,
    every global symbol an integer memory slot, every function an
    integer id, every operand a pre-resolved register index or
    immediate, and every builtin a tag — so the code {!Compiled} and
    {!Native} generate from it performs no hashtable lookups, no string
    comparisons and no list traversals.  The MIR-walking interpreter in
    {!Machine} is kept as a reference oracle; both backends execute
    images built here with identical observable behaviour (output, exit
    code, counters, branch-site event stream).

    Decoding never fails: references that the reference interpreter
    would only fault on at execution time (unknown callees, unknown
    globals, unknown labels, unlowered switches, bad jump-table ids)
    are lowered to trap thunks that raise the same error if — and only
    if — they are actually executed. *)

type pop =
  | Preg of int  (** register slot *)
  | Pimm of int  (** immediate *)

type builtin = Bgetchar | Bputchar | Bprint_int | Bexit

type pinsn =
  | Pmov of int * pop
  | Punop of Mir.Insn.unop * int * pop
  | Pbinop of Mir.Insn.binop * int * pop * pop
  | Pload of int * int * pop  (** dst, global slot, index *)
  | Pstore of int * pop * pop  (** global slot, index, value *)
  | Pcmp of pop * pop
  | Pcall of int * int * pop array
      (** dst register (-1 = none), callee function id, arguments *)
  | Pbuiltin of int * builtin * pop array
      (** dst register (-1 = none); arity is checked at decode time *)
  | Pnop
  | Pprofile_range of int * int  (** sequence id, register slot *)
  | Pprofile_comb of int
  | Ptrap_insn of string  (** decode-time failure; traps when executed *)

(** Block targets are indices into [pf_blocks]; a negative target [-k-1]
    names entry [k] of [pf_unknown] and traps when jumped to. *)
type pterm =
  | Pbr of Mir.Cond.t * int * int * bool
      (** taken target, not-taken target, and whether the not-taken
          target falls through in the layout (no synthetic jump) *)
  | Pjmp of int * bool  (** target, falls-through (costs nothing) *)
  | Pjtab of int * int array  (** index register, table of block targets *)
  | Pret of pop option
  | Ptrap_term of string  (** e.g. an unlowered switch *)
  | Praise_term of exn  (** re-raised verbatim (bad jump-table id) *)

type pblock = {
  pb_label : string;  (** for [on_block] and trap messages only *)
  pb_insns : pinsn array;
  pb_term : pterm;
  pb_delay : pinsn option;
  pb_annul : bool;
  pb_site : int;  (** same numbering as {!Machine.site_of} *)
}

type pfunc = {
  pf_name : string;
  pf_params : int array;  (** register slots of the parameters *)
  pf_nregs : int;
  pf_blocks : pblock array;
  pf_unknown : string array;  (** unknown-label table for trap messages *)
}

type global = {
  g_name : string;
  g_size : int;
  g_init : int array option;
}

type t = {
  funcs : pfunc array;
  main_id : int;  (** index of [main], or -1 *)
  globals : global array;  (** indexed by memory slot *)
  nsites : int;
}

val build : Mir.Program.t -> t
(** Snapshot-lower a program.  The image does not alias the program's
    mutable structure: later mutation of the MIR does not affect it. *)

val max_reg_of : Mir.Func.t -> int
(** Highest register id referenced plus one (register-file size), also
    used by the reference interpreter. *)

val sites : t -> (string * string) array
(** [(function, label)] of every block, indexed by site number — derived
    from the already-built image, so consumers that hold an image (the
    profile-layout pass, tests) never pay a second whole-program
    lowering just to name branch sites. *)

val find_func : t -> string -> pfunc option
(** Look up a function by name (linear scan; not for hot paths). *)

val site_of : t -> func:string -> label:string -> int option
(** The site number of the branch terminating the given block, or
    [None] if the function or label does not exist. *)
