let block (b : Block.t) =
  {
    Block.label = b.Block.label;
    insns = b.Block.insns;
    term = { b.Block.term with Block.kind = b.Block.term.Block.kind };
  }

(* a fresh function, so the clone starts with an empty label index *)
let func (f : Func.t) =
  let g = Func.make ~name:f.Func.name ~params:f.Func.params in
  g.Func.blocks <- List.map block f.Func.blocks;
  g.Func.jtables <- List.map Array.copy f.Func.jtables;
  g.Func.next_reg <- f.Func.next_reg;
  g.Func.next_label <- f.Func.next_label;
  g

let program (p : Program.t) =
  {
    Program.funcs = List.map func p.Program.funcs;
    globals = p.Program.globals;
  }
