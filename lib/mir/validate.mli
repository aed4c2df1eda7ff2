(** Well-formedness checks for MIR.

    Run after every construction or transformation in tests; the driver
    runs it after each pass when assertions are enabled.  Checks:

    - block labels are unique and every referenced label is defined;
    - jump-table entries reference defined labels;
    - the entry block exists;
    - every conditional branch is dominated by a [Cmp] (the condition
      codes are set on all paths from the entry);
    - delay slots contain no [Cmp], call, or control transfer;
    - [Switch] pseudo terminators only appear when [allow_switch] is set;
    - ({!program} only) no global has a negative size or an initializer
      longer than its size;
    - when [check_init] is set, no register is read before being written
      (entry live-in must be a subset of the parameters). *)

val func :
  ?allow_switch:bool -> ?check_init:bool -> Func.t -> (unit, string list) result

val program :
  ?allow_switch:bool -> ?check_init:bool -> Program.t -> (unit, string list) result

val check : ?allow_switch:bool -> ?check_init:bool -> Program.t -> unit
(** Like {!program} but raises [Failure] with a joined message. *)
