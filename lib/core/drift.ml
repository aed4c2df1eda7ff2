(* re-run the paper's selection ({!Pass.choose}) against a profile
   table, without applying anything, and render the outcome as a
   comparable string *)

let seq_signature ?selector ?keep_original_default (p : Mir.Program.t)
    (seq : Detect.t) table =
  let view = Profiles.counts table seq in
  if view.Profiles.total = 0 then "?"
  else begin
    let fn = Mir.Program.find_func p seq.Detect.func_name in
    match Pass.choose ?selector ?keep_original_default fn seq view with
    | None -> "?"
    | Some c ->
      let payloads items =
        String.concat ","
          (List.map
             (fun (it : Select.input_item) -> string_of_int it.Select.in_payload)
             items)
      in
      Printf.sprintf "%s|%s>%s"
        (payloads c.Select.ordered)
        (payloads
           (List.sort
              (fun (a : Select.input_item) (b : Select.input_item) ->
                Int.compare a.Select.in_payload b.Select.in_payload)
              c.Select.eliminated))
        c.Select.default_target
  end

let signature ?selector ?keep_original_default (p : Mir.Program.t) seqs table =
  String.concat ";"
    (List.map
       (fun (seq : Detect.t) ->
         Printf.sprintf "%d:%s" seq.Detect.seq_id
           (seq_signature ?selector ?keep_original_default p seq table))
       seqs)

let drifted ~served ~current = not (String.equal served current)

(* ------------------------------------------------------------------ *)
(* Durable drift state                                                  *)
(* ------------------------------------------------------------------ *)

(* bumped whenever the signature rendering above changes shape: a
   persisted state from an older scheme must read back as None so the
   daemon recomputes instead of comparing apples to oranges *)
let state_version = 1

let state_to_string ~generation ~executions signature =
  if generation < 0 || executions < 0 then
    invalid_arg "Drift.state_to_string: negative field";
  Printf.sprintf "v%d g%d e%d %s" state_version generation executions signature

let state_of_string s =
  match String.index_opt s ' ' with
  | None -> None
  | Some sp1 -> (
    match String.index_from_opt s (sp1 + 1) ' ' with
    | None -> None
    | Some sp2 -> (
      match String.index_from_opt s (sp2 + 1) ' ' with
      | None -> None
      | Some sp3 ->
        let field lo hi tag =
          let w = String.sub s lo (hi - lo) in
          if String.length w < 2 || w.[0] <> tag then None
          else int_of_string_opt (String.sub w 1 (String.length w - 1))
        in
        let signature = String.sub s (sp3 + 1) (String.length s - sp3 - 1) in
        (match (field 0 sp1 'v', field (sp1 + 1) sp2 'g', field (sp2 + 1) sp3 'e')
         with
        | Some v, Some g, Some e when v = state_version && g >= 0 && e >= 0 ->
          Some (g, e, signature)
        | _ -> None)))
