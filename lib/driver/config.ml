type t = {
  heuristic : Mopt.Switch_lower.heuristic_set;
  selector : [ `Greedy | `Exhaustive ];
  apply_options : Reorder.Apply.options;
  common_succ : bool;
  profile : [ `Trained | `Static | `Both ];
      (** where the profile counts come from: a training run ([`Trained],
          the paper's baseline), pure static prediction
          ({!Reorder.Profiles.of_static}, no training run at all), or
          training backfilled with predictions for unexercised
          sequences ([`Both]) *)
  keep_original_default : bool;
  coalesce_machine : Sim.Cycle_model.params option;
  delay_fill_from_target : bool;
  profile_layout : bool;
  predictors : (int * int * int) list;
  validate : bool;
  verify : bool;
  fuel : int;
  backend : Sim.Machine.backend;
  native_cache_dir : string option;
  cancel : (unit -> bool) option;
}

let backend_name = Sim.Machine.backend_name

(* degradation walks from the requested backend down to the reference
   interpreter — the slowest rung, but the one with the least machinery
   to go wrong *)
let rungs c =
  match c.backend with
  | `Native -> [ `Native; `Compiled; `Reference ]
  | `Compiled -> [ `Compiled; `Reference ]
  | `Reference -> [ `Reference ]

let profile_name = function
  | `Trained -> "trained"
  | `Static -> "static"
  | `Both -> "both"

let profile_of_name = function
  | "trained" -> Some `Trained
  | "static" -> Some `Static
  | "both" -> Some `Both
  | _ -> None

let paper_predictors =
  List.concat_map
    (fun entries -> [ (0, 1, entries); (0, 2, entries) ])
    [ 32; 64; 128; 256; 512; 1024; 2048 ]

let default =
  {
    heuristic = Mopt.Switch_lower.set_i;
    selector = `Greedy;
    apply_options = Reorder.Apply.default_options;
    common_succ = false;
    profile = `Trained;
    keep_original_default = false;
    coalesce_machine = None;
    delay_fill_from_target = true;
    profile_layout = false;
    predictors = paper_predictors;
    validate = true;
    verify = false;
    fuel = 500_000_000;
    backend = `Compiled;
    native_cache_dir = None;
    cancel = None;
  }
