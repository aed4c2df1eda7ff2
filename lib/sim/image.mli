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

val with_memory : t -> (int array array -> 'a) -> 'a
(** [with_memory t f] runs [f] on the global memory of one execution,
    indexed by slot: zeroed, with initializers applied, the starting
    state of every fast-backend run.  Arrays longer than 256 words
    (the minor heap's [Max_young_wosize]) would otherwise be allocated
    directly on the major heap on every run, so they come from a
    per-domain pool keyed by length, are zeroed and re-initialized
    when taken, and go back to it when [f] returns or raises.  [f]
    must not let the memory escape.  A nested call takes its own
    arrays, so a domain keeps at most as many arrays of each length as
    it had in use at once; the pool is never trimmed, and grows with
    the distinct large global lengths of the programs run on it.  The
    reference interpreter allocates its own memory and shares no state
    with this pool. *)

val with_output : (Buffer.t -> 'a) -> 'a
(** [with_output f] runs [f] on an empty output buffer of the calling
    domain, taken from a per-domain list and given back, with the
    capacity it grew to, when [f] returns or raises: a warm run whose
    output outgrows the initial 1 KB regrows nothing.  [f] must not let
    the buffer escape; a nested call takes a buffer of its own. *)

(** {2 Charge batching}

    Both fast backends charge the instruction counter and fuel in
    block-granular batches rather than per instruction.  Exactness is
    kept by flushing the pending batch before every point the outside
    world can observe: instructions that can trap or perform I/O,
    profile recordings, and every terminator.  Between two flush points
    only pure register arithmetic runs, so moving its charges to the
    flush is indistinguishable — the fuel trap fires under exactly the
    conditions of the reference interpreter, with the same counters.
    This section is the one place that decides where batches are
    flushed; {!Compiled} and {!Native} both consume it. *)

type batching =
  | Bnop  (** a counted nop: joins the batch and runs no code *)
  | Bpure  (** no observable effect: joins the batch *)
  | Beffect
      (** may trap or perform I/O: the batch and its own charge are
          flushed before it runs *)
  | Bobserve
      (** observable but charges nothing (profile recordings, decode
          traps): the batch is flushed before it runs *)

val batching : pinsn -> batching

type plan = {
  flushes : (int * int) array;
      (** per body instruction, the [(insns, nops)] batch charged just
          before it runs — for a {!Beffect} this includes its own
          instruction; [(0, 0)] where nothing is flushed *)
  owed : int * int;
      (** the [(insns, nops)] batch still pending when the terminator
          is reached, which adds its own charge to it *)
}

val plan : pblock -> plan
