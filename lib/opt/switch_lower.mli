(** Switch-statement translation (paper Table 2).

    A [Switch] pseudo terminator is expanded into one of three shapes:

    - {b indirect jump}: bounds checks, an index subtraction and a jump
      through a dense table (holes jump to the default target);
    - {b binary search}: a balanced tree of compare/branch pairs; each
      node tests equality and then branches on less/greater, sharing one
      compare between the two branches;
    - {b linear search}: a chain of equality tests in source order — the
      shape the reordering transformation benefits from most.

    The heuristic sets choose among the shapes from [n] (number of cases)
    and [span] (number of possible values between first and last case):

    - Set I (pcc, used for the IPC and the SPARC 20): indirect when
      [n >= 4] and [span <= 3n]; else binary search when [n >= 8]; else
      linear.
    - Set II (Ultra 1, where indirect jumps are ~4x dearer): indirect only
      when [n >= 16] and [span <= 3n]; else as Set I.
    - Set III: always linear. *)

type strategy =
  | Indirect
  | Binary_search
  | Linear

type heuristic_set = {
  hs_name : string;
  choose : ncases:int -> span:int -> strategy;
}

val set_i : heuristic_set
val set_ii : heuristic_set
val set_iii : heuristic_set
val all_sets : heuristic_set list

val lower_func : heuristic_set -> Mir.Func.t -> unit
val lower_program : heuristic_set -> Mir.Program.t -> unit
(** After lowering, no [Switch] terminators remain. *)
