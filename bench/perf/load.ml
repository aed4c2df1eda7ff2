(* Load for the serve workloads, from the calling thread alone, with at
   most [inflight] requests outstanding.  A closed loop posts the next
   request as soon as a slot frees; an open loop posts on a fixed
   schedule and times each request from when it was due, so a stall also
   counts against the requests queued behind it. *)

type request = { key : int; name : string; source : string; input : string }

type sample = {
  s_req : request;
  s_due : float;  (* open loop: schedule time; closed loop: post time *)
  s_lag : float;  (* how late the generator woke for this request, s *)
  s_done : float;
  s_resp : Driver.Server.response;
}

let latency_ms s = (s.s_done -. s.s_due) *. 1000.0

(* The calling thread waits on [c] until at most [wake_at] requests are
   in flight, and a completion signals only then: woken on every
   completion, the waiting thread's domain would take [m] a thousand
   times a second, and a worker would stall on [m] whenever the host
   stopped that thread's virtual CPU while it held it. *)
type slots = {
  m : Mutex.t;
  c : Condition.t;
  mutable inflight : int;
  mutable wake_at : int;  (* -1: nobody waits *)
  mutable samples : sample list;
}

let slots () =
  { m = Mutex.create (); c = Condition.create (); inflight = 0; wake_at = -1; samples = [] }

(* with [t.m] held: wait until at most [n] requests are in flight *)
let wait_until t n =
  while t.inflight > n do
    t.wake_at <- n;
    Condition.wait t.c t.m
  done;
  t.wake_at <- -1

let acquire t ~max =
  Mutex.lock t.m;
  wait_until t (max - 1);
  t.inflight <- t.inflight + 1;
  Mutex.unlock t.m

let drain t =
  Mutex.lock t.m;
  wait_until t 0;
  Mutex.unlock t.m

let next_req = Atomic.make 1

(* [after] runs in the completion callback before the request leaves
   the in-flight count, so a successor it posts keeps the count up;
   [idle] runs in the callback that leaves nothing in flight, on the
   worker that served the request, before [drain] returns *)
let post ?(after = ignore) ?(idle = ignore) t srv q ~due ~lag =
  let id = Atomic.fetch_and_add next_req 1 in
  let posted_ns = Spans.now_ns () in
  Driver.Server.post srv ~name:q.name ~source:q.source ~input:q.input
    (fun r ->
      let done_ns = Spans.now_ns () in
      (* keep the output's digest only: the harness must not grow the
         heap it measures *)
      let r = { r with Driver.Server.rs_output = Digest.string r.Driver.Server.rs_output } in
      let d = float_of_int done_ns *. 1e-9 in
      let s = { s_req = q; s_due = due; s_lag = lag; s_done = d; s_resp = r } in
      (* one request: queued from its due time, served in the worker *)
      let due_ns = int_of_float (due *. 1e9) in
      let parent = Spans.fresh_id () in
      Spans.record ~id:parent ~req:id "serve.request" ~start_ns:due_ns
        ~stop_ns:done_ns;
      Spans.record ~parent ~req:id "load.post" ~start_ns:due_ns
        ~stop_ns:posted_ns;
      Spans.record ~parent ~req:id "server.handle"
        ~start_ns:(done_ns - int_of_float (r.Driver.Server.rs_wall_ms *. 1e6))
        ~stop_ns:done_ns;
      after ();
      Mutex.lock t.m;
      t.samples <- s :: t.samples;
      t.inflight <- t.inflight - 1;
      if t.inflight = 0 then idle ();
      if t.inflight <= t.wake_at then Condition.signal t.c;
      Mutex.unlock t.m)

(* post [reqs] in order, closed loop; returns the samples *)
let run_list srv ~inflight reqs =
  let t = slots () in
  List.iter
    (fun q ->
      acquire t ~max:inflight;
      post t srv q ~due:(Spans.now ()) ~lag:0.0)
    reqs;
  drain t;
  List.rev t.samples

(* one request alone, [idle] running on its worker after it *)
let one ?idle srv q =
  let t = slots () in
  t.inflight <- 1;
  post ?idle t srv q ~due:(Spans.now ()) ~lag:0.0;
  drain t;
  List.hd t.samples

(* closed loop for [seconds]: (samples, seconds until the last
   completion).  Each completion posts the next request from the worker
   that finished it, so no thread has to wake up between two requests;
   the calling thread only waits for the last one.  [idle] runs on the
   worker that finishes the last one, once nothing is in flight. *)
let closed ?idle srv ~inflight ~seconds ~next =
  let t = slots () in
  let gen = Mutex.create () in
  let t0 = Spans.now () in
  let stop = t0 +. seconds in
  let i = ref 0 in
  let rec send () =
    Mutex.lock gen;
    let now = Spans.now () in
    let q =
      if now < stop then begin
        let q = next !i ~at:now in
        incr i;
        Some q
      end
      else None
    in
    Mutex.unlock gen;
    match q with
    | None -> ()
    | Some q ->
      Mutex.lock t.m;
      t.inflight <- t.inflight + 1;
      Mutex.unlock t.m;
      post ~after:send ?idle t srv q ~due:now ~lag:0.0
  in
  for _ = 1 to inflight do
    send ()
  done;
  drain t;
  let last = List.fold_left (fun m s -> Float.max m s.s_done) t0 t.samples in
  (List.rev t.samples, last -. t0)

(* open loop at [rate] requests/s for [seconds].  The generator sleeps
   until each due time; [s_lag] is how far past it the sleep ran.  Time
   spent waiting for a free slot is the server's backlog, not the
   generator's lateness, and shows up in the latency instead. *)
let open_ srv ~inflight ~rate ~seconds ~next =
  let t = slots () in
  let n = int_of_float (rate *. seconds) in
  let t0 = Spans.now () +. 0.001 in
  for i = 0 to n - 1 do
    let due = t0 +. (float_of_int i /. rate) in
    acquire t ~max:inflight;
    let now = Spans.now () in
    let lag =
      if now < due then begin
        Unix.sleepf (due -. now);
        Spans.now () -. due
      end
      else 0.0
    in
    post t srv (next i ~at:due) ~due ~lag
  done;
  drain t;
  (List.rev t.samples, Spans.now () -. t0)
