(** Types shared by the execution backends.

    {!Machine} re-exports these under its historical names
    ([Machine.Trap], [Machine.config], [Machine.result]); new code that
    only needs the types (e.g. {!Compiled}) can use them directly. *)

exception Trap of string
(** Runtime error: division by zero, out-of-bounds access, unknown
    function, call-depth or fuel exhaustion, unlowered switch. *)

val trap : ('a, unit, string, 'b) format4 -> 'a
(** [trap fmt ...] raises {!Trap} with a formatted message. *)

exception Program_exit of int
(** Raised by the [exit] builtin; caught by every backend's entry
    point. *)

exception Cancelled
(** Raised by a backend when {!config.cancel} returns [true]: the run
    was cooperatively cancelled (e.g. a watchdog deadline expired).
    Unlike {!Trap} this is not a property of the simulated program —
    callers that enforce per-job deadlines ({!Driver.Guard}) catch it
    and classify the job as timed out. *)

type config = {
  fuel : int;        (** maximum dynamic instructions before trapping *)
  max_depth : int;   (** maximum call depth *)
  cancel : (unit -> bool) option;
      (** cooperative cancellation flag, polled once per executed basic
          block by every backend; when it returns [true] the run raises
          {!Cancelled}.  [None] (the default) adds no per-block cost.
          The closure should amortize any clock reads itself. *)
}

val default_config : config

val watchdog : ms:int -> unit -> bool
(** [watchdog ~ms] is a fresh cancellation flag for {!config.cancel}
    that starts returning [true] once [ms] milliseconds of wall clock
    have elapsed since its creation.  Clock reads are amortized (the
    first poll, then one every 2048 polls), and expiry latches: all later polls cancel
    immediately, so one flag can cover several consecutive runs of the
    same job (e.g. a pipeline's training and measurement runs) under a
    single deadline. *)

type result = {
  counters : Counters.t;
  output : string;
  exit_code : int;
}
