(* [Json] lives in its own dependency-free library; it is re-exported
   here so existing [Bench_db.Json] users keep compiling. *)
module Json = Json
