(** A benchmark workload: a MiniC re-creation of one of the paper's 17
    Unix utilities (Table 3), with deterministic training and test
    inputs (different seeds, as the paper used different training and
    test data). *)

type t = {
  name : string;
  description : string;  (** matches the paper's Table 3 description *)
  source : string;       (** MiniC source *)
  training_input : string Lazy.t;
  test_input : string Lazy.t;
}

val make :
  name:string ->
  description:string ->
  source:string ->
  training_input:string Lazy.t ->
  test_input:string Lazy.t ->
  t
(** Prepends the shared MiniC helpers to [source]: [print_num] (the
    utilities do their own decimal output, so the digit loop counts as
    user code, like the paper's measured programs). *)
