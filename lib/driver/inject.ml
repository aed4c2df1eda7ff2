(* Seeded fault injection for certifying job isolation.

   A plan assigns at most one fault to each victim job; the guarded
   runner ({!Pipeline.run_jobs_guarded}) arms the fault only on the
   job's originally-requested backend, so the degradation ladder has
   something real to recover from.  Every fault must end up contained:
   attributed to its job in the outcome list without disturbing any
   sibling. *)

type kind =
  | Raise      (* an exception thrown inside the worker *)
  | Trap       (* a simulated-program trap *)
  | Fuel       (* fuel exhaustion: the attempt runs with a tiny budget *)
  | Deadline   (* watchdog exhaustion: the cancellation flag is forced *)
  | Corrupt    (* wrong-result corruption of the job's observables *)

let all_kinds = [ Raise; Trap; Fuel; Deadline; Corrupt ]

let kind_name = function
  | Raise -> "raise"
  | Trap -> "trap"
  | Fuel -> "fuel"
  | Deadline -> "deadline"
  | Corrupt -> "corrupt"

type fault = { i_job : int; i_kind : kind }

exception Injected of int
(* the [Raise] fault, carrying the victim job id *)

let pp_fault ppf f =
  Format.fprintf ppf "job %d: %s" f.i_job (kind_name f.i_kind)

(* [min count n] distinct victims among [0 .. n-1], in draw order: the
   prefix of a Fisher-Yates shuffle driven by an LCG seeded from [seed]
   and a per-plan [salt], each victim paired with the next kind of
   [kinds] in turn, so every kind appears whenever [count] reaches the
   number of kinds, whatever the seed *)
let draw ~salt ~seed ~n ~count kinds =
  let count = max 0 (min count n) in
  let state = ref (((seed * 2_654_435_761) lxor salt) land 0x3FFF_FFFF) in
  let next () =
    state := ((!state * 1_103_515_245) + 12345) land 0x3FFF_FFFF;
    !state
  in
  let ids = Array.init (max 0 n) Fun.id in
  for i = 0 to count - 1 do
    let j = i + (next () mod (n - i)) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let kinds = Array.of_list kinds in
  List.init count (fun i -> (ids.(i), kinds.(i mod Array.length kinds)))

let plan ~seed ~jobs ~count =
  draw ~salt:0x5DEECE6D ~seed ~n:jobs ~count all_kinds
  |> List.map (fun (i_job, i_kind) -> { i_job; i_kind })

let find plans ~job = List.find_opt (fun f -> f.i_job = job) plans

(* ------------------------------------------------------------------ *)
(* Server-level chaos plans                                            *)
(* ------------------------------------------------------------------ *)

(* The serving counterpart: faults against a {!Server} under replay
   traffic rather than against one batch job.  The first two strike
   inside the victim request's guarded closure; the other three damage
   the environment (artifact store, durability journal) from the
   driver thread just before the victim request fires, so the
   self-healing and torn-tail machinery recover under live load. *)

type server_kind =
  | S_kill_worker  (* exception inside the serving closure *)
  | S_stall        (* the attempt stalls past the request deadline *)
  | S_corrupt_artifact   (* flip bytes of a cached .cmxs on disk *)
  | S_truncate_artifact  (* truncate a cached .cmxs on disk *)
  | S_tear_journal       (* tear the durability journal's tail *)

let all_server_kinds =
  [ S_kill_worker; S_stall; S_corrupt_artifact; S_truncate_artifact;
    S_tear_journal ]

let server_kind_name = function
  | S_kill_worker -> "kill_worker"
  | S_stall -> "stall"
  | S_corrupt_artifact -> "corrupt_artifact"
  | S_truncate_artifact -> "truncate_artifact"
  | S_tear_journal -> "tear_journal"

type server_fault = { sv_request : int; sv_kind : server_kind }

let server_plan ~seed ~requests ~count =
  draw ~salt:0x2545F491 ~seed ~n:requests ~count all_server_kinds
  |> List.map (fun (sv_request, sv_kind) -> { sv_request; sv_kind })
  |> List.sort (fun a b -> compare a.sv_request b.sv_request)

let server_find plans ~request =
  List.find_opt (fun f -> f.sv_request = request) plans
