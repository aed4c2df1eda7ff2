type stats = {
  a_name : string;
  a_entries : int;
  a_hits : int;
  a_misses : int;
  a_builds : int;
  a_failures : int;
}

(* a slot is either a ready artifact or a marker that some domain is
   building it right now; waiters sleep on [cond] until the marker is
   replaced or removed *)
type 'a slot = Ready of 'a | Building

type 'a t = {
  name : string;
  table : (string, 'a slot) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable hits : int;
  mutable misses : int;
  mutable builds : int;
  mutable failures : int;
}

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        a_name = t.name;
        a_entries =
          Hashtbl.fold
            (fun _ slot n -> match slot with Ready _ -> n + 1 | Building -> n)
            t.table 0;
        a_hits = t.hits;
        a_misses = t.misses;
        a_builds = t.builds;
        a_failures = t.failures;
      })

let ready t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun _ slot acc ->
          match slot with Ready v -> v :: acc | Building -> acc)
        t.table [])

(* in-flight builds keep their markers: their builders will install *)
let clear t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.filter_map_inplace
        (fun _ slot -> match slot with Building -> Some slot | Ready _ -> None)
        t.table)

let create ~name () =
  {
    name;
    table = Hashtbl.create 16;
    lock = Mutex.create ();
    cond = Condition.create ();
    hits = 0;
    misses = 0;
    builds = 0;
    failures = 0;
  }

let reset_stats t =
  Mutex.protect t.lock (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.builds <- 0;
      t.failures <- 0)

let remove t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some (Ready _) -> Hashtbl.remove t.table key
      | Some Building | None -> ())

let find_or_build t key build =
  Mutex.lock t.lock;
  let rec claim () =
    match Hashtbl.find_opt t.table key with
    | Some (Ready v) ->
      t.hits <- t.hits + 1;
      `Hit v
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
      Hashtbl.replace t.table key (Ready v);
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
