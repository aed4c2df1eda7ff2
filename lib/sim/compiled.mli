(** Closure-compiled execution backend ("threaded code").

    Lowers each {!Image.pblock} into a chain of OCaml closures built
    once at compile time: operand shapes are resolved, builtins and
    callees are bound, immediate-only arithmetic is constant-folded,
    and there is no per-instruction [match] dispatch.  Counter and
    fuel updates are charged in the block-granular batches of
    {!Image.plan}, so traps, fuel exhaustion and the ten counters are
    byte-identical to the reference interpreter and the native
    backend.  A block that is one [cmp reg, imm] and a conditional
    branch with an empty delay slot runs as a single closure.

    Branch measurement is fused into the loop: conditional-branch
    terminators deliver their outcome straight to a {!Predictor.sink};
    a bank sink appends it to the bank's event buffer, which is folded
    in batches and allocates nothing per branch event. *)

type t
(** A compiled program.  Compile once, execute many times — executions
    are independent: each run starts from zeroed registers and
    counters and from the initial global memory, whose large arrays
    {!Image.with_memory} reuses from earlier runs on the domain, as
    {!Image.with_output} reuses the output buffer. *)

val compile : Image.t -> t

val image : t -> Image.t
(** The image this program was compiled from (e.g. for {!Image.sites}). *)

val exec :
  ?config:Runtime.config ->
  ?profile:Profile.t ->
  ?sink:Predictor.sink ->
  ?on_block:(func:string -> label:string -> unit) ->
  t ->
  input:string ->
  Runtime.result
(** Run a compiled program.  [sink] defaults to {!Predictor.Sink_none};
    pass [Sink_bank] for buffered, allocation-free measurement or
    [Sink_fun] to call a closure per branch event. *)
