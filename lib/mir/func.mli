(** A MIR function: a list of basic blocks in layout order.

    The first block is the entry.  Blocks are kept in layout order, which
    determines fall-throughs (see {!Block.static_insn_count}); passes that
    change the order must keep the entry first.

    A function keeps a label index for {!find_block_opt}, built on the
    first lookup after its block list changes.  It relies on two facts:
    a block's label never changes, and a pass edits the layout by
    assigning [blocks] a new list, never by mutating one in place.  The
    index records the list it was built from and is valid only while
    [blocks] is physically that list. *)

type index
(** The label index of one block list. *)

type t = {
  name : string;
  params : Reg.t list;
  mutable blocks : Block.t list;  (** layout order; head is the entry *)
  mutable jtables : string array list;
      (** jump tables, indexed by position (table 0 first) *)
  mutable next_reg : int;
  mutable next_label : int;
  index : index Atomic.t;
      (** cache behind {!find_block_opt}; published whole, so domains
          that read one function concurrently stay safe *)
}

val make : name:string -> params:Reg.t list -> t
(** An empty function with an empty label index. *)

val entry : t -> Block.t
(** Raises [Invalid_argument] on a function with no blocks. *)

val fresh_reg : t -> Reg.t
val fresh_label : t -> string
(** Fresh labels are ["<func>.L<n>"] and unique within the function. *)

val add_block : t -> Block.t -> unit
(** Appends at the end of the layout. *)

val insert_blocks_after : t -> string -> Block.t list -> unit
(** [insert_blocks_after f label blocks] splices [blocks] into the layout
    immediately after the block labelled [label].
    Raises [Not_found] if [label] is not defined. *)

val find_block : t -> string -> Block.t
(** Raises [Not_found]. *)

val find_block_opt : t -> string -> Block.t option
(** The first block of the layout with this label.  O(1) while [blocks]
    is unchanged; the first lookup after a change rebuilds the index in
    one pass over the layout. *)

val jtab : t -> int -> string array
(** Resolve a jump-table id.  Raises [Invalid_argument] on a bad id. *)

val add_jtable : t -> string array -> int
(** Registers a jump table, returning its id. *)

val successors : t -> Block.t -> string list

val predecessors : t -> (string, string list) Hashtbl.t
(** Map from block label to predecessor labels, in layout order of the
    predecessors.  Every label of the function has an entry, and so does
    every successor label outside it.  Linear in the edges; recomputed
    on demand, not cached. *)

val iter_blocks : t -> (Block.t -> unit) -> unit

val iter_regs : (Reg.t -> unit) -> t -> unit
(** Calls the function on every register the function names: its
    parameters, the defs and uses of every instruction and delay slot,
    and the registers of terminators (repeats included). *)

val static_insn_count : t -> int
(** Sum of {!Block.static_insn_count} over the layout. *)

val reachable : t -> (string, unit) Hashtbl.t
(** Labels reachable from the entry. *)

val pp : Format.formatter -> t -> unit
