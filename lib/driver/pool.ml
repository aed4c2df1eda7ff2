(* a malformed BROMC_DOMAINS is reported once, not on every call *)
let warned_bad_domains = ref false

let default_domains () =
  match Sys.getenv_opt "BROMC_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      if not !warned_bad_domains then begin
        warned_bad_domains := true;
        Printf.eprintf
          "[pool] WARNING: BROMC_DOMAINS=%S is not a positive integer; \
           running on 1 domain\n%!"
          s
      end;
      1)
  | None -> max 1 (min 16 (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* Structured per-job outcomes                                         *)
(* ------------------------------------------------------------------ *)

type exn_info = {
  exn_name : string;
  exn_message : string;
  backtrace : string;
}

let exn_info ?(backtrace = "") e =
  {
    exn_name = Printexc.exn_slot_name e;
    exn_message = Printexc.to_string e;
    backtrace;
  }

type 'a outcome =
  | Ok of 'a
  | Trap of string
  | Timeout of int
  | Crash of exn_info

let outcome_ok = function Ok _ -> true | _ -> false

let outcome_status = function
  | Ok _ -> "ok"
  | Trap _ -> "trap"
  | Timeout _ -> "timeout"
  | Crash _ -> "crash"

let outcome_message = function
  | Ok _ -> ""
  | Trap m -> m
  | Timeout ms ->
    if ms > 0 then Printf.sprintf "deadline of %d ms exceeded" ms
    else "run cancelled by watchdog"
  | Crash i -> i.exn_message

(* ------------------------------------------------------------------ *)
(* Long-lived worker pool                                              *)
(* ------------------------------------------------------------------ *)

(* true on a [Workers] domain whose pool already runs one domain per
   core of the host: a [both] there runs its two halves in turn, since
   a third domain would only take a core from a sibling worker *)
let full_pool_worker = Domain.DLS.new_key (fun () -> false)

(* a daemon taking an open-ended request stream wants the domain spawn
   (milliseconds) paid once, and per-domain state (profile shards) needs
   workers with stable identities.  [Workers] keeps [n] domains alive
   pulling tasks off one queue; every task learns the index of the
   worker running it.  Batch fan-out ([map] below) is one pool per
   call, shut down when its queue drains. *)
module Workers = struct
  type t = {
    mutable w_domains : unit Domain.t list;
    w_queue : (worker:int -> unit) Queue.t;
    w_lock : Mutex.t;
    w_nonempty : Condition.t;
    mutable w_stopping : bool;
    w_size : int;
  }

  let size t = t.w_size

  let worker_loop t w =
    Domain.DLS.set full_pool_worker
      (t.w_size >= Domain.recommended_domain_count ());
    let continue = ref true in
    while !continue do
      Mutex.lock t.w_lock;
      while Queue.is_empty t.w_queue && not t.w_stopping do
        Condition.wait t.w_nonempty t.w_lock
      done;
      if Queue.is_empty t.w_queue then begin
        (* stopping and drained *)
        Mutex.unlock t.w_lock;
        continue := false
      end
      else begin
        let task = Queue.pop t.w_queue in
        Mutex.unlock t.w_lock;
        (* a task that escapes with an exception must not take its
           worker down with it; tasks that care wrap their own work *)
        try task ~worker:w
        with e ->
          Printf.eprintf "[pool] WARNING: worker %d task raised %s\n%!" w
            (Printexc.to_string e)
      end
    done

  let create ?domains () =
    let d =
      max 1 (match domains with Some d -> d | None -> default_domains ())
    in
    let t =
      {
        w_domains = [];
        w_queue = Queue.create ();
        w_lock = Mutex.create ();
        w_nonempty = Condition.create ();
        w_stopping = false;
        w_size = d;
      }
    in
    t.w_domains <- List.init d (fun w -> Domain.spawn (fun () -> worker_loop t w));
    t

  let post t task =
    Mutex.lock t.w_lock;
    if t.w_stopping then begin
      Mutex.unlock t.w_lock;
      invalid_arg "Pool.Workers.post: pool is shut down"
    end;
    Queue.push task t.w_queue;
    Condition.signal t.w_nonempty;
    Mutex.unlock t.w_lock

  let run t f =
    let m = Mutex.create () in
    let c = Condition.create () in
    let cell = ref None in
    post t (fun ~worker ->
        let r =
          try Stdlib.Ok (f ~worker)
          with e -> Stdlib.Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock m;
        cell := Some r;
        Condition.signal c;
        Mutex.unlock m);
    Mutex.lock m;
    while Option.is_none !cell do
      Condition.wait c m
    done;
    let r = Option.get !cell in
    Mutex.unlock m;
    match r with
    | Stdlib.Ok v -> v
    | Stdlib.Error (e, bt) -> Printexc.raise_with_backtrace e bt

  let shutdown t =
    Mutex.lock t.w_lock;
    let ds = t.w_domains in
    t.w_stopping <- true;
    t.w_domains <- [];
    Condition.broadcast t.w_nonempty;
    Mutex.unlock t.w_lock;
    List.iter Domain.join ds
end

module Inflight = struct
  type t = { m : Mutex.t; c : Condition.t; mutable n : int }

  let create () = { m = Mutex.create (); c = Condition.create (); n = 0 }

  let track t k =
    Mutex.protect t.m (fun () -> t.n <- t.n + 1);
    fun x ->
      Fun.protect
        (fun () -> k x)
        ~finally:(fun () ->
          Mutex.protect t.m (fun () ->
              t.n <- t.n - 1;
              if t.n = 0 then Condition.broadcast t.c))

  let wait t =
    Mutex.protect t.m (fun () ->
        while t.n > 0 do
          Condition.wait t.c t.m
        done)
end

(* ------------------------------------------------------------------ *)
(* Fan-out                                                             *)
(* ------------------------------------------------------------------ *)

(* one job split in two: [f] on a fresh domain, [g] on the caller's,
   or both in turn on a worker of a full pool.  The join comes before
   any exception leaves, so no domain outlives the call *)
let both f g =
  if Domain.DLS.get full_pool_worker then begin
    let a = f () in
    (a, g ())
  end
  else begin
    let d = Domain.spawn f in
    match g () with
    | b -> (Domain.join d, b)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try ignore (Domain.join d) with _ -> ());
      Printexc.raise_with_backtrace e bt
  end

(* every item's [f] runs to completion (or to a captured exception), on
   the caller's domain when one domain is asked for, else on a [Workers]
   pool of at most one domain per item; nothing a single job does can
   discard another job's slot.  Distinct slots, so the plain writes are
   race-free, and [Workers.shutdown]'s joins publish them *)
let map ?domains f xs =
  let captured x =
    try Stdlib.Ok (f x)
    with e -> Stdlib.Error (e, Printexc.get_raw_backtrace ())
  in
  let n = List.length xs in
  let d = min n (match domains with Some d -> d | None -> default_domains ()) in
  let rs =
    if d <= 1 then List.map captured xs
    else begin
      let results = Array.make n None in
      let pool = Workers.create ~domains:d () in
      List.iteri
        (fun i x ->
          Workers.post pool (fun ~worker:_ -> results.(i) <- Some (captured x)))
        xs;
      Workers.shutdown pool;
      Array.to_list results |> List.map Option.get
    end
  in
  (* the first failure in input order, whatever the schedule *)
  List.map
    (function
      | Stdlib.Ok r -> r
      | Stdlib.Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    rs
