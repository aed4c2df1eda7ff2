(* The host's speed, read from a fixed kernel.

   On a shared host the same code runs up to a third slower for seconds
   to minutes at a time, with the load of the other tenants.  It is not
   CPU steal (the process's CPU time drifts the same way), so no clock
   can subtract it.  The harness reads the speed right before and after
   each timed unit, while nothing else of the process runs, and scales
   the unit's time to the speed at which one repetition of the kernel
   takes [nominal] seconds.

   The kernel is fixed here, independent of the code under test: it
   builds and probes a small integer map, allocating and chasing
   pointers as the pipeline and the simulators do.  A reading first
   finishes the collector's pending work, untimed; then every
   repetition starts on an empty minor heap and allocates about 30k
   words, under the 256k of one, so no collection (and so nothing of the
   program's heap) is part of it, and each reuses the memory of the one
   before.  The first repetition only warms that memory up; the reading
   is the median of the others.  [collected] counts repetitions that saw
   a collection anyway. *)

module M = Map.Make (Int)

let rep () =
  let m = ref M.empty in
  for i = 1 to 400 do
    m := M.add ((i * 7919) land 1023) i !m
  done;
  let acc = ref 0 in
  for i = 1 to 6000 do
    match M.find_opt ((i * 104729) land 1023) !m with
    | Some v -> acc := !acc + v
    | None -> incr acc
  done;
  !acc

let sink = ref 0
let reps = 5
let nominal = 0.0005
let readings : float list ref = ref []
let collected = ref 0

(* seconds spent reading, for intervals that enclose readings *)
let spent = ref 0.0

(* one reading, in seconds per repetition *)
let read () =
  let t0 = Spans.now_ns () in
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let times =
    Array.init (reps + 1) (fun _ ->
        Gc.minor ();
        let c = (Gc.quick_stat ()).Gc.minor_collections in
        let t = Spans.now_ns () in
        sink := !sink + rep ();
        let d = Spans.now_ns () - t in
        if (Gc.quick_stat ()).Gc.minor_collections <> c then incr collected;
        d)
  in
  let times = Array.sub times 1 reps in
  Array.sort compare times;
  let r = float_of_int times.(reps / 2) *. 1e-9 in
  readings := r :: !readings;
  spent := !spent +. (float_of_int (Spans.now_ns () - t0) *. 1e-9);
  r

(* scales a time measured between the readings [before] and [after] *)
let factor ~before ~after = nominal /. ((before +. after) /. 2.0)
