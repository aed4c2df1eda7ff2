(** The MIR interpreter.

    Executes a program deterministically against a string of input,
    counting dynamic instructions exactly as the assembled SPARC-like code
    would execute them: conditional branches and unconditional transfers
    carry delay slots (a filled slot executes its instruction, an unfilled
    one executes a counted nop), a not-taken branch whose fall-through
    successor is not next in the layout executes an extra jump, and a jump
    to the next block in the layout costs nothing.

    Built-in functions: [getchar] (reads the input string, -1 at end),
    [putchar], [print_int] (decimal), [exit].  [puts]/[print_str] are
    expanded by the front end and never reach the simulator. *)

exception Trap of string
(** Runtime error: division by zero, out-of-bounds access, unknown
    function, call-depth or fuel exhaustion, unlowered switch.  Equal to
    {!Runtime.Trap}, shared by every execution backend. *)

exception Cancelled
(** The run was cooperatively cancelled via {!config.cancel} (equal to
    {!Runtime.Cancelled}); raised at a basic-block boundary by every
    backend. *)

type config = Runtime.config = {
  fuel : int;        (** maximum dynamic instructions before trapping *)
  max_depth : int;   (** maximum call depth *)
  cancel : (unit -> bool) option;
      (** cooperative cancellation flag, polled once per executed block
          (watchdog deadline hook; [None] = never cancelled) *)
}

val default_config : config

type result = Runtime.result = {
  counters : Counters.t;
  output : string;
  exit_code : int;
}

type backend = [ `Reference | `Compiled | `Native ]
(** The execution engines.  All three produce identical output, exit
    codes, counters and branch-site event streams. *)

val backend_name : backend -> string
(** Stable machine-readable tag ("reference" / "compiled" / "native")
    used on the command line and in reports. *)

val backend_of_name : string -> backend option
(** Inverse of {!backend_name}; also accepts the aliases "ref" and
    "closure".  [None] on unknown tags. *)

val run :
  ?config:config ->
  ?profile:Profile.t ->
  ?sink:Predictor.sink ->
  ?on_block:(func:string -> label:string -> unit) ->
  ?image:Image.t ->
  ?cache_dir:string ->
  ?backend:backend ->
  Mir.Program.t ->
  input:string ->
  result
(** [run p ~input] executes [p] from [main].  Every executed
    conditional branch is delivered to [sink] (default
    {!Predictor.Sink_none}) with a stable site number (assigned in
    program order) and the outcome: [Sink_bank] drives {!Predictor}s,
    [Sink_fun] calls a closure.  [on_block] is called on entry to every
    basic block (a control-flow trace).  Raises {!Trap} on runtime
    errors.  This is the one place that picks an engine for a one-shot
    run.

    [backend] selects the execution engine (default [`Compiled]):
    [`Reference] walks the MIR directly and is kept as the oracle the
    fast paths are cross-checked against; [`Compiled] lowers the
    program through {!Image.build} and compiles each image block to a
    chain of OCaml closures ({!Compiled}), eliminating per-instruction
    dispatch; [`Native] generates OCaml source for the image, compiles
    it out of process and dynlinks the result ({!Native} — raises
    {!Native.Unavailable} when no toolchain is present, so callers that
    cannot degrade should check {!Native.available} first).

    [image] is [p]'s {!Image.build}, for a caller that already holds it;
    the two fast engines run it instead of lowering [p] again.
    [cache_dir] is passed to {!Native.run_image}.  The reference engine
    ignores both. *)

val run_reference :
  ?config:config ->
  ?profile:Profile.t ->
  ?sink:Predictor.sink ->
  ?on_block:(func:string -> label:string -> unit) ->
  Mir.Program.t ->
  input:string ->
  result
(** The MIR-walking reference interpreter ([run ~backend:`Reference]). *)

val site_of : Mir.Program.t -> func:string -> label:string -> int
(** The site number the machine assigns to the branch terminating the
    given block (for tests). *)

val sites : Mir.Program.t -> (string * string) array
(** [(function, label)] for every block, indexed by site number — the
    inverse of {!site_of}, for consumers of branch events that need
    to attribute counts to blocks (e.g. profile-guided layout). *)

val branch_counts :
  config:config ->
  on_block:(func:string -> label:string -> unit) ->
  Mir.Program.t ->
  inputs:string list ->
  (string * string, int * int) Hashtbl.t
(** Run [p] on the reference interpreter over each input in turn and
    tally every conditional branch's (taken, fall-through) outcomes by
    the [(function, label)] of the block it ends.  A trap ends that
    input's run; the outcomes up to it stay counted.  [on_block] sees
    every block entered, as in {!run}.  Used by [bromc lint
    --divergence] and by the fuzz harness's lint cross-check. *)
