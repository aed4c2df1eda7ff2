(** Graphviz rendering of CFGs (for papersmithing and debugging; the CLI
    exposes it as [bromc dot]). *)

val func :
  ?annot:(Block.t -> string option) -> Format.formatter -> Func.t -> unit
(** One [digraph] per function: a record node per block listing its
    instructions, edges labelled T/F for branch arms and with the case
    index for jump tables.  [annot] contributes extra per-block text
    (e.g. dataflow facts, see [bromc dot --facts]) rendered after the
    instructions. *)

val func_to_string : ?annot:(Block.t -> string option) -> Func.t -> string

val program :
  ?annot:(Func.t -> Block.t -> string option) ->
  Format.formatter ->
  Program.t ->
  unit
(** All functions as separate [digraph]s in one stream; [annot] receives
    the enclosing function as well. *)
