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
  | Gave_up of { attempts : int; last : exn_info }

let outcome_ok = function Ok _ -> true | _ -> false

let outcome_status = function
  | Ok _ -> "ok"
  | Trap _ -> "trap"
  | Timeout _ -> "timeout"
  | Crash _ -> "crash"
  | Gave_up _ -> "gave_up"

let outcome_message = function
  | Ok _ -> ""
  | Trap m -> m
  | Timeout ms ->
    if ms > 0 then Printf.sprintf "deadline of %d ms exceeded" ms
    else "run cancelled by watchdog"
  | Crash i -> i.exn_message
  | Gave_up { attempts; last } ->
    Printf.sprintf "gave up after %d attempts: %s" attempts last.exn_message

exception Job_error of int * string * exn

(* ------------------------------------------------------------------ *)
(* The domain pool                                                     *)
(* ------------------------------------------------------------------ *)

(* the core fan-out: every item's [f] runs to completion (or to a
   captured exception); nothing a single job does can discard another
   job's slot *)
let map_captured ?domains f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let d =
    max 1 (min n (match domains with Some d -> d | None -> default_domains ()))
  in
  if d <= 1 then
    List.map
      (fun x ->
        try Stdlib.Ok (f x)
        with e -> Stdlib.Error (e, Printexc.get_raw_backtrace ()))
      xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* each domain claims the next unstarted index; distinct slots, so
       the plain writes are race-free, and [Domain.join] publishes them *)
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          results.(i) <-
            Some
              (try Stdlib.Ok (f items.(i))
               with e -> Stdlib.Error (e, Printexc.get_raw_backtrace ()))
      done
    in
    let spawned = List.init (d - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list results
    |> List.map (function Some r -> r | None -> assert false)
  end

let default_label i _ = Printf.sprintf "job %d" i

let map ?domains ?(label = default_label) f xs =
  let rec first i xs rs =
    match (xs, rs) with
    | _, [] -> None
    | [], _ -> None
    | x :: xs, r :: rs -> (
      match r with
      | Stdlib.Ok _ -> first (i + 1) xs rs
      | Stdlib.Error (e, bt) -> Some (i, x, e, bt))
  in
  let rs = map_captured ?domains f xs in
  match first 0 xs rs with
  | Some (i, x, e, bt) ->
    (* fail fast, but name the job: the caller asked for all-or-nothing *)
    Printexc.raise_with_backtrace (Job_error (i, label i x, e)) bt
  | None ->
    List.map (function Stdlib.Ok r -> r | Stdlib.Error _ -> assert false) rs

(* ------------------------------------------------------------------ *)
(* Long-lived worker pool                                              *)
(* ------------------------------------------------------------------ *)

(* [map] spawns domains per call, which is the right shape
   for batch fan-out but not for a daemon taking an open-ended request
   stream: domain spawn is milliseconds, and per-domain state (profile
   shards) needs workers with stable identities.  [Workers] keeps [n]
   domains alive pulling tasks off one queue; every task learns the
   index of the worker running it. *)
module Workers = struct
  exception Overloaded of { depth : int; cap : int }

  let () =
    Printexc.register_printer (function
      | Overloaded { depth; cap } ->
        Some
          (Printf.sprintf "Pool.Workers.Overloaded (queue depth %d, cap %d)"
             depth cap)
      | _ -> None)

  type t = {
    mutable w_domains : unit Domain.t list;
    w_queue : (worker:int -> unit) Queue.t;
    w_lock : Mutex.t;
    w_nonempty : Condition.t;
    mutable w_stopping : bool;
    w_size : int;
    w_queue_cap : int;  (* 0 = unbounded *)
    mutable w_shed : int;  (* posts refused at the high-watermark *)
  }

  let size t = t.w_size

  let depth t =
    Mutex.lock t.w_lock;
    let d = Queue.length t.w_queue in
    Mutex.unlock t.w_lock;
    d

  let queue_cap t = t.w_queue_cap

  let shed t =
    Mutex.lock t.w_lock;
    let n = t.w_shed in
    Mutex.unlock t.w_lock;
    n

  let worker_loop t w =
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

  let create ?domains ?(queue_cap = 0) () =
    if queue_cap < 0 then invalid_arg "Pool.Workers.create: negative queue_cap";
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
        w_queue_cap = queue_cap;
        w_shed = 0;
      }
    in
    t.w_domains <- List.init d (fun w -> Domain.spawn (fun () -> worker_loop t w));
    t

  (* admission control: a bounded queue sheds load at its
     high-watermark instead of letting latency grow without limit.
     The cap bounds *waiting* tasks, not in-flight ones — [d] workers
     plus [queue_cap] queued is the system's capacity *)
  let post t task =
    Mutex.lock t.w_lock;
    if t.w_stopping then begin
      Mutex.unlock t.w_lock;
      invalid_arg "Pool.Workers.post: pool is shut down"
    end;
    let d = Queue.length t.w_queue in
    if t.w_queue_cap > 0 && d >= t.w_queue_cap then begin
      t.w_shed <- t.w_shed + 1;
      Mutex.unlock t.w_lock;
      raise (Overloaded { depth = d; cap = t.w_queue_cap })
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
