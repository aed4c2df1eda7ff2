(* Per-job resilience: wall-clock watchdogs, classification of every
   way a job can end into a structured {!Pool.outcome}, and the backend
   degradation ladder.  Runs are deterministic, so a crash would recur
   on its rung: moving down the ladder is the one way a crashed job
   recovers.  The guard never lets a job's failure escape as an
   exception — containment is the whole point. *)

type policy = {
  timeout_ms : int option;
  degrade : bool;
}

let default = { timeout_ms = None; degrade = false }

type meta = {
  m_attempts : int;
  m_errors : string list;
}

let cancel_of policy =
  Option.map (fun ms -> Sim.Runtime.watchdog ~ms) policy.timeout_ms

(* one attempt: its outcome, and the error line a failed attempt adds *)
let protect policy job =
  match job ~cancel:(cancel_of policy) with
  | v -> (Pool.Ok v, None)
  | exception Sim.Runtime.Cancelled ->
    let o = Pool.Timeout (Option.value ~default:0 policy.timeout_ms) in
    (o, Some (Pool.outcome_message o))
  | exception (Sim.Native.Unavailable m as e) ->
    (* the native toolchain is missing or broke for this process: a
       crash of this rung, which the caller's ladder serves from the
       closure backend *)
    (Pool.Crash (Pool.exn_info e), Some ("native backend unavailable: " ^ m))
  | exception Sim.Runtime.Trap m ->
    (* a trap is a deterministic property of the simulated program *)
    (Pool.Trap m, Some ("trap: " ^ m))
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    let backtrace = Printexc.raw_backtrace_to_string bt in
    let info = Pool.exn_info ~backtrace e in
    (Pool.Crash info, Some info.Pool.exn_message)

(* the degradation ladder: traps and timeouts are properties of the
   simulated program and the deadline, identical on every backend, so
   degrading cannot help and they are final; crashes move down a rung *)
let ladder policy (config : Config.t) job =
  let rungs =
    if policy.degrade then Config.rungs config else [ config.Config.backend ]
  in
  let rec walk attempts errors = function
    | [] -> assert false
    | backend :: rest -> (
      let outcome, error = protect policy (job ~backend) in
      let attempts = attempts + 1 in
      let errors =
        match error with
        | Some e ->
          Printf.sprintf "attempt %d (%s): %s" attempts
            (Config.backend_name backend) e
          :: errors
        | None -> errors
      in
      match outcome with
      | Pool.Crash _ when rest <> [] -> walk attempts errors rest
      | _ ->
        let meta = { m_attempts = attempts; m_errors = List.rev errors } in
        (backend, outcome, meta))
  in
  walk 0 [] rungs
