type stats = {
  a_name : string;
  a_entries : int;
  a_capacity : int;
  a_hits : int;
  a_misses : int;
  a_builds : int;
  a_evictions : int;
  a_failures : int;
}

(* a slot is either a ready artifact (with an LRU tick) or a marker
   that some domain is building it right now; waiters sleep on [cond]
   until the marker is replaced or removed *)
type 'a entry = { value : 'a; mutable tick : int }
type 'a slot = Ready of 'a entry | Building

type 'a t = {
  name : string;
  mutable capacity : int;
  table : (string, 'a slot) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable builds : int;
  mutable evictions : int;
  mutable failures : int;
}

let stats_locked t =
  let entries =
    Hashtbl.fold
      (fun _ slot n -> match slot with Ready _ -> n + 1 | Building -> n)
      t.table 0
  in
  {
    a_name = t.name;
    a_entries = entries;
    a_capacity = t.capacity;
    a_hits = t.hits;
    a_misses = t.misses;
    a_builds = t.builds;
    a_evictions = t.evictions;
    a_failures = t.failures;
  }

let stats t =
  Mutex.lock t.lock;
  let s = stats_locked t in
  Mutex.unlock t.lock;
  s

let ready t =
  Mutex.lock t.lock;
  let vs =
    Hashtbl.fold
      (fun _ slot acc ->
        match slot with Ready e -> e.value :: acc | Building -> acc)
      t.table []
  in
  Mutex.unlock t.lock;
  vs

let clear t =
  Mutex.lock t.lock;
  let dropped = ref 0 in
  let keep = Hashtbl.create 4 in
  Hashtbl.iter
    (fun k slot ->
      match slot with
      | Building -> Hashtbl.replace keep k slot
      | Ready _ -> incr dropped)
    t.table;
  Hashtbl.reset t.table;
  Hashtbl.iter (Hashtbl.replace t.table) keep;
  Mutex.unlock t.lock;
  !dropped

let create ?(capacity = 0) ~name () =
  {
    name;
    capacity;
    table = Hashtbl.create 16;
    lock = Mutex.create ();
    cond = Condition.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    builds = 0;
    evictions = 0;
    failures = 0;
  }

let touch (t : 'a t) (e : 'a entry) =
  t.tick <- t.tick + 1;
  e.tick <- t.tick

(* evict least-recently-used Ready entries until within capacity;
   Building markers are never evicted (their builder will install) *)
let enforce_capacity_locked t =
  if t.capacity > 0 then begin
    let ready_count () =
      Hashtbl.fold
        (fun _ s n -> match s with Ready _ -> n + 1 | Building -> n)
        t.table 0
    in
    while ready_count () > t.capacity do
      let victim = ref None in
      Hashtbl.iter
        (fun k s ->
          match s with
          | Building -> ()
          | Ready e -> (
            match !victim with
            | Some (_, tick) when tick <= e.tick -> ()
            | _ -> victim := Some (k, e.tick)))
        t.table;
      match !victim with
      | None -> assert false (* ready_count > capacity >= 1 *)
      | Some (k, _) ->
        Hashtbl.remove t.table k;
        t.evictions <- t.evictions + 1
    done
  end

let set_capacity t n =
  Mutex.lock t.lock;
  t.capacity <- n;
  enforce_capacity_locked t;
  Mutex.unlock t.lock

let reset_stats t =
  Mutex.lock t.lock;
  t.hits <- 0;
  t.misses <- 0;
  t.builds <- 0;
  t.evictions <- 0;
  t.failures <- 0;
  Mutex.unlock t.lock

let find t key =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some (Ready e) ->
      t.hits <- t.hits + 1;
      touch t e;
      Some e.value
    | Some Building | None ->
      t.misses <- t.misses + 1;
      None
  in
  Mutex.unlock t.lock;
  r

let remove t key =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.table key with
  | Some (Ready _) -> Hashtbl.remove t.table key
  | Some Building | None -> ());
  Mutex.unlock t.lock

let find_or_build t key build =
  Mutex.lock t.lock;
  let rec claim () =
    match Hashtbl.find_opt t.table key with
    | Some (Ready e) ->
      t.hits <- t.hits + 1;
      touch t e;
      `Hit e.value
    | Some Building ->
      (* someone else is building this key; wait and re-examine — if
         their build fails the slot disappears and we take over *)
      Condition.wait t.cond t.lock;
      claim ()
    | None ->
      t.misses <- t.misses + 1;
      Hashtbl.replace t.table key Building;
      `Build
  in
  match claim () with
  | `Hit v ->
    Mutex.unlock t.lock;
    v
  | `Build -> (
    Mutex.unlock t.lock;
    match build () with
    | v ->
      Mutex.lock t.lock;
      t.builds <- t.builds + 1;
      t.tick <- t.tick + 1;
      Hashtbl.replace t.table key (Ready { value = v; tick = t.tick });
      enforce_capacity_locked t;
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      v
    | exception e ->
      Mutex.lock t.lock;
      t.failures <- t.failures + 1;
      Hashtbl.remove t.table key;
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      raise e)
