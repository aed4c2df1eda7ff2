(* Types shared by every execution backend (reference, closure-compiled,
   native).  Lives below Machine and Compiled so the two can
   agree on traps, configuration and results without depending on each
   other; Machine re-exports everything under its historical names. *)

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

exception Program_exit of int

exception Cancelled

type config = {
  fuel : int;
  max_depth : int;
  cancel : (unit -> bool) option;
}

let default_config = { fuel = 2_000_000_000; max_depth = 10_000; cancel = None }

(* Deadline-based cancellation flag for [config.cancel].  The flag is
   polled once per executed basic block, so the clock is read on the
   first poll (a run shorter than the window still sees a deadline that
   passed before it started) and then once per window of polls; once
   expired it latches, making every later
   poll (including from subsequent runs sharing the flag) cancel
   immediately.  One flag may be polled from several domains at once
   (a pipeline job measures its original on a second domain): the latch
   is atomic, so an expiry seen by one is seen by all; the tick count is
   only a sampling rate, and a lost increment just delays a clock read. *)
let watchdog ~ms =
  let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.0) in
  let ticks = ref 0 in
  let expired = Atomic.make false in
  fun () ->
    Atomic.get expired
    ||
    begin
      incr ticks;
      if (!ticks land 2047 = 0 || !ticks = 1)
         && Unix.gettimeofday () > deadline
      then
        Atomic.set expired true;
      Atomic.get expired
    end

type result = {
  counters : Counters.t;
  output : string;
  exit_code : int;
}
