(* Spans recorded from outside the program: the harness wraps each call
   into a layer's public function.  Spans stay in memory and are written
   once, at exit, as Chrome trace-event JSON.  With tracing off every
   wrapper is a plain call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (now_ns ()) *. 1e-9

type span = {
  name : string;
  start_ns : int;
  stop_ns : int;
  id : int;
  parent : int;  (* 0 = root *)
  req : int;  (* spans of one request share it; 0 = none *)
  tid : int;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 1

(* the innermost open span of each domain, the parent of the next one *)
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let fresh_id () = Atomic.fetch_and_add next_id 1
let current_id () = Domain.DLS.get current

let record ?(parent = 0) ?(req = 0) ?(id = fresh_id ()) name ~start_ns
    ~stop_ns =
  if !enabled then begin
    let s =
      { name; start_ns; stop_ns; id; parent; req;
        tid = (Domain.self () :> int) }
    in
    Mutex.lock lock;
    recorded := s :: !recorded;
    Mutex.unlock lock
  end

let with_span ?req ?parent name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent =
      match parent with Some p -> p | None -> Domain.DLS.get current
    in
    Domain.DLS.set current id;
    let start_ns = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = now_ns () in
        Domain.DLS.set current parent;
        record ~id ~parent ?req name ~start_ns ~stop_ns)
      f
  end

let all () =
  Mutex.lock lock;
  let s = !recorded in
  Mutex.unlock lock;
  List.rev s

(* length of the union of [intervals], each clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if cb < 0 then (total, (a, b))
        else if a <= cb then (total, (ca, max cb b))
        else (total + (cb - ca), (a, b)))
      (0, (0, -1))
      clipped
  in
  let ca, cb = last in
  if cb < 0 then total else total + (cb - ca)

(* self time: the span minus the part of it its child spans cover *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, s.stop_ns - s.start_ns - covered ~lo:s.start_ns ~hi:s.stop_ns kids))
    spans

(* total self time per span name, in milliseconds *)
let self_ms_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self + Option.value ~default:0 (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  fun name ->
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl name)) /. 1e6

let to_chrome spans =
  let open Bench_db.Json in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  let us ns = Float (float_of_int ns /. 1000.0) in
  Obj
    [
      ("displayTimeUnit", Str "ms");
      ( "traceEvents",
        Arr
          (List.map
             (fun s ->
               Obj
                 [
                   ("name", Str s.name);
                   ("cat", Str "perf");
                   ("ph", Str "X");
                   ("ts", us (s.start_ns - t0));
                   ("dur", us (s.stop_ns - s.start_ns));
                   ("pid", Int 1);
                   ("tid", Int s.tid);
                   ( "args",
                     Obj
                       [ ("id", Int s.id); ("parent", Int s.parent);
                         ("req", Int s.req) ] );
                 ])
             spans) );
    ]

let write_chrome path spans =
  let oc = open_out_bin path in
  output_string oc (Bench_db.Json.to_string (to_chrome spans));
  output_char oc '\n';
  close_out oc
