(* Front-end goldens: what the lexer, parser and bytecode compiler make of
   every program the repository ships or generates. A refactor of
   [lib/jsfront] or [lib/bytecode] must leave the digest unchanged; a
   deliberate change to the bytecode prints the digest the check
   received, to paste below. *)

let members () = List.concat_map (fun (s : Suite.t) -> s.Suite.members) Suites.all

let sources () =
  let members = List.map (fun (m : Suite.member) -> m.Suite.m_source) (members ()) in
  let sites =
    List.concat_map
      (fun seed -> List.map (fun p -> Web.synthetic_site ~seed p) Web.[ google; facebook; twitter ])
      (List.init 16 (fun i -> i + 1))
  in
  let serve = Serve.default_config () in
  let tenants = List.init 257 (fun i -> Serve.tenant_source serve (i - 1)) in
  let fuzz = List.init 500 (fun seed -> Fuzz_gen.any_program (Random.State.make [| seed |])) in
  members @ sites @ tenants @ fuzz

(* The disassembly plus what it leaves out: each function's [max_stack]
   and [nloops], and the global table. *)
let program_fingerprint (p : Bytecode.Program.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Bytecode.Program.disassemble p);
  Array.iter
    (fun (f : Bytecode.Program.func) ->
      Printf.bprintf buf "\n%d max_stack=%d nloops=%d" f.Bytecode.Program.fid
        f.Bytecode.Program.max_stack f.Bytecode.Program.nloops)
    p.Bytecode.Program.funcs;
  Printf.bprintf buf "\nglobals %s" (String.concat "," (Array.to_list p.Bytecode.Program.global_names));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let bytecode_golden = "365aaece5de80fba6879af844820f82a"

let test_bytecode_golden () =
  let prints =
    List.map (fun src -> program_fingerprint (Bytecode.Compile.program_of_source src)) (sources ())
  in
  Alcotest.(check int) "programs" (48 + 48 + 257 + 500) (List.length prints);
  Alcotest.(check string) "bytecode digest" bytecode_golden
    (Digest.to_hex (Digest.string (String.concat "\n" prints)))

(* Front-end fuzz gate: deterministic byte-level mutants of the suite
   sources. Each must either compile to bytecode the verifier accepts or
   fail with one of the front end's own errors; any other exception is a
   finding. The digest pins every mutant's outcome (kind, position,
   message, and the bytecode of those that compile), so a refactor that
   moves an error or changes what a mutant compiles to shows up here. *)

let mutants = 2000

(* Bytes an edit inserts: the lexer's interesting characters, plus any
   byte at all one time in eight. *)
let insertable = "0123456789xXeE.+-*/%=<>!&|^~?:;,(){}[]\"'\\ \n\t$_abcfnortuvw"

let mutate rng src =
  let n = String.length src in
  let pos = Random.State.int rng (n + 1) in
  let span () = min (n - pos) (1 + Random.State.int rng 12) in
  let cut a b = String.sub src a (b - a) in
  match Random.State.int rng 4 with
  | 0 ->
    (* delete 1-12 bytes *)
    let k = span () in
    cut 0 pos ^ cut (pos + k) n
  | 1 ->
    (* duplicate 1-12 bytes in place *)
    let k = span () in
    cut 0 (pos + k) ^ cut pos n
  | 2 ->
    (* insert one byte *)
    let c =
      if Random.State.int rng 8 = 0 then Char.chr (Random.State.int rng 256)
      else insertable.[Random.State.int rng (String.length insertable)]
    in
    cut 0 pos ^ String.make 1 c ^ cut pos n
  | _ ->
    (* splice: overwrite 1-12 bytes with bytes from elsewhere in the source *)
    let k = span () in
    let from = Random.State.int rng (n - k + 1) in
    cut 0 pos ^ String.sub src from k ^ cut (pos + k) n

(* [Finding] is a gate failure: bytecode the verifier rejects, or an
   exception that is none of the front end's errors. *)
type outcome = Compiled of string | Rejected of string | Finding of string

let outcome src =
  let at kind (pos : Jsfront.Pos.t) msg = Rejected (Printf.sprintf "%s %d:%d %s" kind pos.line pos.col msg) in
  match Bytecode.Compile.program_of_source src with
  | p -> (
    match Bc_verify.check_program p with
    | () -> Compiled (program_fingerprint p)
    | exception Diag.Failed d -> Finding ("bytecode verifier: " ^ Diag.to_string d))
  | exception Jsfront.Lexer.Error (pos, msg) -> at "lex" pos msg
  | exception Jsfront.Parser.Error (pos, msg) -> at "parse" pos msg
  | exception Bytecode.Compile.Error msg -> Rejected ("compile " ^ msg)
  | exception (Out_of_memory as e) -> raise e
  | exception e -> Finding (Printexc.to_string e)

let mutant_outcomes_golden = "176e21ef8559eae8c1452136e9086d5b"

let test_mutants () =
  let members = Array.of_list (members ()) in
  let findings = ref [] and lines = ref [] and compiled = ref 0 in
  for i = mutants - 1 downto 0 do
    let m = members.(i mod Array.length members) in
    let src = mutate (Random.State.make [| i |]) m.Suite.m_source in
    let line =
      match outcome src with
      | Compiled print ->
        incr compiled;
        "ok " ^ print
      | Rejected what -> what
      | Finding what ->
        findings := Printf.sprintf "mutant %d of %s: %s" i m.Suite.m_name what :: !findings;
        what
    in
    lines := line :: !lines
  done;
  if !findings <> [] then
    Alcotest.failf "%d mutants escaped the front end's errors:\n%s" (List.length !findings)
      (String.concat "\n" !findings);
  (* Most mutants must still be rejected, or the mutator has gone soft. *)
  Alcotest.(check bool) "a minority compile" true (!compiled < mutants / 2);
  Alcotest.(check string) "outcome digest" mutant_outcomes_golden
    (Digest.to_hex (Digest.string (String.concat "\n" !lines)))

let suites =
  [
    ("frontend.golden", [ Alcotest.test_case "bytecode digest" `Quick test_bytecode_golden ]);
    ("frontend.fuzz", [ Alcotest.test_case "mutated suite sources" `Quick test_mutants ]);
  ]
