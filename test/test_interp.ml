(* End-to-end tests: MiniJS source -> bytecode -> interpreter. These pin
   down the reference semantics that the JIT must preserve. *)

open Runtime

(* Run a source string, capturing everything [print] outputs. *)
let run_capture src =
  let out = Buffer.create 64 in
  Builtins.with_print_hook
    (fun s -> Buffer.add_string out s; Buffer.add_char out '\n')
    (fun () ->
      let program = Bytecode.Compile.program_of_source src in
      let _state, _v = Interp.run_program program in
      Buffer.contents out)

let check_output name src expected =
  Alcotest.(check string) name (expected ^ "\n") (run_capture src)

let test_arithmetic () =
  check_output "int arithmetic" "print(2 + 3 * 4 - 1);" "13";
  check_output "division" "print(7 / 2);" "3.5";
  check_output "precedence with parens" "print((2 + 3) * 4);" "20"

let test_variables () =
  check_output "var and assign" "var x = 1; x = x + 41; print(x);" "42";
  check_output "compound assign" "var x = 10; x += 5; x *= 2; print(x);" "30";
  check_output "multi declarator" "var a = 1, b = 2; print(a + b);" "3"

let test_update_expressions () =
  check_output "postfix value" "var i = 5; print(i++); print(i);" "5\n6";
  check_output "prefix value" "var i = 5; print(++i); print(i);" "6\n6";
  check_output "array element update" "var a = [1]; a[0]++; print(a[0]);" "2";
  check_output "property update" "var o = {n: 1}; print(o.n--); print(o.n);" "1\n0";
  check_output "string increments numerically" "var s = \"5\"; s++; print(s);" "6"

let test_control_flow () =
  check_output "if/else" "if (1 < 2) print(\"yes\"); else print(\"no\");" "yes";
  check_output "while" "var i = 0, t = 0; while (i < 5) { t += i; i++; } print(t);" "10";
  check_output "do-while runs once" "var i = 9; do { print(i); i++; } while (i < 5);" "9";
  check_output "for with break"
    "var t = 0; for (var i = 0; i < 100; i++) { if (i == 3) break; t += i; } print(t);"
    "3";
  check_output "continue" "var t = 0; for (var i = 0; i < 5; i++) { if (i % 2) continue; t += i; } print(t);" "6";
  check_output "nested loop break"
    "var n = 0; for (var i = 0; i < 3; i++) { for (var j = 0; j < 3; j++) { if (j == 1) break; n++; } } print(n);"
    "3"

let test_logic () =
  check_output "and returns operand" "print(0 && 5, 2 && 5);" "0 5";
  check_output "or returns operand" "print(0 || 7, 3 || 7);" "7 3";
  check_output "short circuit effects"
    "var n = 0; function f() { n++; return true; } var x = false && f(); print(n);" "0";
  check_output "ternary" "print(3 > 2 ? \"a\" : \"b\");" "a"

let test_functions () =
  check_output "declaration hoisting" "print(add(1, 2)); function add(a, b) { return a + b; }" "3";
  check_output "recursion"
    "function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); } print(fact(10));" "3628800";
  check_output "missing args are undefined"
    "function f(a, b) { return typeof b; } print(f(1));" "undefined";
  check_output "function as value"
    "var t = function(f, x) { return f(x); }; print(t(function(y) { return y * 2; }, 21));"
    "42";
  check_output "early return" "function f(x) { if (x) return 1; return 2; } print(f(0), f(3));" "2 1"

let test_closures () =
  check_output "captured counter"
    "function mk() { var c = 0; return function() { c++; return c; }; } var f = mk(); f(); f(); print(f());"
    "3";
  check_output "distinct environments"
    "function mk() { var c = 0; return function() { c++; return c; }; } var a = mk(), b = mk(); a(); print(a(), b());"
    "2 1";
  check_output "captured parameter"
    "function adder(n) { return function(x) { return x + n; }; } print(adder(10)(5));" "15";
  check_output "two level capture"
    "function f() { var x = 1; function g() { function h() { return x; } return h(); } return g(); } print(f());"
    "1";
  check_output "sibling closures share a cell"
    "function mk() { var c = 0; var inc = function() { c++; }; var get = function() { return c; }; inc(); inc(); return get(); } print(mk());"
    "2"

let test_arrays () =
  check_output "literal and index" "var a = [10, 20, 30]; print(a[1], a.length);" "20 3";
  check_output "out of bounds" "var a = [1]; print(a[5]);" "undefined";
  check_output "growth by write" "var a = []; a[3] = 9; print(a.length, a[0]);" "4 undefined";
  check_output "sized constructor" "var a = new Array(4); print(a.length);" "4";
  check_output "element constructor" "var a = new Array(1, 2, 3); print(a.join(\"\"));" "123"

let test_objects () =
  check_output "literal props" "var o = {a: 1, b: \"x\"}; print(o.a, o.b);" "1 x";
  check_output "prop assignment" "var o = {}; o.k = 7; print(o.k);" "7";
  check_output "computed keys" "var o = {}; o[\"k\" + 1] = 3; print(o.k1);" "3";
  check_output "missing prop" "var o = {}; print(o.nope);" "undefined";
  check_output "method via property"
    "var o = {f: function(x) { return x + 1; }}; print(o.f(41));" "42"

let test_strings () =
  check_output "builtin methods" "var s = \"hello\"; print(s.length, s.charAt(1), s.charCodeAt(0));" "5 e 104";
  check_output "string index" "var s = \"abc\"; print(s[1]);" "b";
  check_output "concat builds" "var s = \"\"; for (var i = 0; i < 3; i++) s += i; print(s);" "012"

let test_array_higher_order () =
  check_output "map" "print([1, 2, 3].map(function(x) { return x * 10; }).join(\"-\"));"
    "10-20-30";
  check_output "map receives the index"
    "print([5, 5, 5].map(function(x, i) { return x + i; }).join(\",\"));" "5,6,7";
  check_output "filter"
    "print([1, 2, 3, 4, 5, 6].filter(function(x) { return x % 2 == 0; }).join(\",\"));"
    "2,4,6";
  check_output "forEach side effects"
    "var t = 0; [1, 2, 3].forEach(function(x) { t += x; }); print(t);" "6";
  check_output "reduce with initial"
    "print([1, 2, 3, 4].reduce(function(acc, x) { return acc + x; }, 100));" "110";
  check_output "reduce without initial"
    "print([1, 2, 3, 4].reduce(function(acc, x) { return acc * x; }));" "24";
  check_output "some/every"
    "var a = [1, 2, 3]; print(a.some(function(x) { return x > 2; }), a.every(function(x) { return x > 0; }), a.every(function(x) { return x > 1; }));"
    "true true false";
  check_output "chained"
    "print([1, 2, 3, 4, 5].filter(function(x) { return x % 2 == 1; }).map(function(x) { return x * x; }).reduce(function(a, b) { return a + b; }, 0));"
    "35"

let test_switch () =
  check_output "matching case"
    "function f(x) { switch (x) { case 1: return \"one\"; case 2: return \"two\"; default: return \"many\"; } } print(f(1), f(2), f(5));"
    "one two many";
  check_output "fallthrough"
    "var log = \"\"; switch (2) { case 1: log += \"a\"; case 2: log += \"b\"; case 3: log += \"c\"; break; case 4: log += \"d\"; } print(log);"
    "bc";
  check_output "strict matching" "switch (\"1\") { case 1: print(\"int\"); break; default: print(\"none\"); }"
    "none";
  check_output "no default falls out" "var r = 0; switch (9) { case 1: r = 1; } print(r);" "0";
  check_output "default in the middle"
    "function f(x) { var log = \"\"; switch (x) { case 1: log += \"a\"; default: log += \"d\"; case 2: log += \"b\"; break; case 3: log += \"c\"; } return log; } print(f(1), f(2), f(3), f(7));"
    "adb b c db";
  check_output "break binds to switch, continue to loop"
    "var t = 0; for (var i = 0; i < 5; i++) { switch (i % 2) { case 0: continue; case 1: t += i; break; } t += 100; } print(t);"
    "204";
  check_output "case expressions evaluated lazily in order"
    "var n = 0; function probe(v) { n++; return v; } switch (2) { case probe(1): break; case probe(2): break; case probe(3): break; } print(n);"
    "2"

let test_typeof_and_equality () =
  check_output "typeof table"
    "print(typeof 1, typeof \"s\", typeof true, typeof undefined, typeof null, typeof [1], typeof print);"
    "number string boolean undefined object object function";
  check_output "loose vs strict" "print(1 == \"1\", 1 === \"1\", null == undefined);" "true false true"

let test_globals_across_functions () =
  check_output "global mutation"
    "var g = 0; function bump() { g += 1; } bump(); bump(); print(g);" "2";
  check_output "implicit global" "function f() { imp = 9; } f(); print(imp);" "9"

let test_builtin_integration () =
  check_output "math" "print(Math.floor(2.9), Math.abs(-3), Math.sqrt(81));" "2 3 9";
  check_output "fromCharCode" "print(String.fromCharCode(104, 105));" "hi";
  check_output "parseInt" "print(parseInt(\"42px\"), parseInt(\"ff\", 16));" "42 255"

let test_runtime_errors () =
  let expect_error src =
    match run_capture src with
    | exception Interp.Runtime_error _ -> ()
    | _ -> Alcotest.failf "expected runtime error for %s" src
  in
  expect_error "var x; x();";
  expect_error "null.p;";
  expect_error "undefined[0];";
  expect_error "var o = {}; o.missing();"

let test_deep_recursion_and_state () =
  check_output "mutual recursion"
    "function even(n) { return n == 0 ? true : odd(n - 1); } function odd(n) { return n == 0 ? false : even(n - 1); } print(even(100));"
    "true";
  check_output "fib memo with object cache"
    "var memo = {}; function fib(n) { if (n < 2) return n; var k = \"\" + n; if (memo[k] != undefined) return memo[k]; var r = fib(n-1) + fib(n-2); memo[k] = r; return r; } print(fib(40));"
    "102334155"

(* Property: random arithmetic expressions evaluate identically through the
   full pipeline and through direct AST-level evaluation with Ops. *)
let rec eval_ast (e : Jsfront.Ast.expr) : Value.t =
  match e with
  | Jsfront.Ast.Int n -> Value.of_int n
  | Jsfront.Ast.Float f -> Value.norm_num f
  | Jsfront.Ast.Binop (op, a, b) -> Ops.binop op (eval_ast a) (eval_ast b)
  | _ -> Alcotest.fail "generator produced unsupported node"

let gen_numeric_expr =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Jsfront.Ast.Int i) (int_range (-1000) 1000);
                (* Quarter-integers print exactly under %g, so the printed
                   program computes with the same constants. *)
                map
                  (fun i -> Jsfront.Ast.Float (float_of_int i /. 4.0))
                  (int_range (-4000) 4000);
              ]
          else
            map3
              (fun op a b -> Jsfront.Ast.Binop (op, a, b))
              (oneofl Ops.[ Add; Sub; Mul; Div; Mod; Bit_and; Bit_or; Bit_xor; Shl; Shr ])
              (self (n / 2)) (self (n / 2)))
        n)

let prop_pipeline_matches_direct_eval =
  QCheck.Test.make ~name:"interpreter matches direct operator evaluation" ~count:300
    (QCheck.make ~print:Jsfront.Ast.expr_to_string gen_numeric_expr)
    (fun e ->
      let src = Printf.sprintf "__result = (%s);" (Jsfront.Ast.expr_to_string e) in
      let program = Bytecode.Compile.program_of_source src in
      let state, _ = Interp.run_program program in
      match Bytecode.Program.global_slot program "__result" with
      | None -> false
      | Some slot ->
        let got = state.Interp.globals.(slot) in
        let expected = eval_ast e in
        Value.same_value got expected
        ||
        (* NaN compares same_value-equal; doubles may differ at -0.0 which
           same_value distinguishes but JS === does not. Accept === too. *)
        Ops.strict_eq got expected)

let test_sort_comparator () =
  Alcotest.(check string) "numeric comparator" "1,2,3,5,40\n"
    (run_capture
       "var a = new Array(5, 1, 40, 3, 2); a.sort(function (x, y) { return x - y; }); print(a.join(\",\"));");
  Alcotest.(check string) "descending" "40,5,3,2,1\n"
    (run_capture
       "var a = new Array(5, 1, 40, 3, 2); a.sort(function (x, y) { return y - x; }); print(a.join(\",\"));");
  Alcotest.(check string) "no comparator sorts by string image" "1,10,100,9\n"
    (run_capture "var b = new Array(10, 9, 100, 1); b.sort(); print(b.join(\",\"));")

let test_for_in_enumeration () =
  Alcotest.(check string) "insertion order, overwrites keep position"
    "bacd 19\n"
    (run_capture "var o = { b: 1, a: 2, c: 3 }; o.d = 4; o.b = 10;\nvar ks = \"\"; var s = 0;\nfor (var k in o) { ks += k; s += o[k]; }\nprint(ks, s);");
  Alcotest.(check string) "array indices as strings" "39\n"
    (run_capture "var a = new Array(5, 6, 7); var t = 0;\nfor (var i in a) t += a[i] * 2 + i.length;\nprint(t);");
  Alcotest.(check string) "primitives enumerate nothing" "done\n"
    (run_capture "for (var e in 42) print(\"never\"); print(\"done\");")

let test_for_in_break_continue () =
  Alcotest.(check string) "continue skips, break stops" "110\n"
    (run_capture
       "var o = { x: 50, skip: 1000, y: 60, z: 70 };\nvar n = 0;\nfor (var k in o) { if (k == \"skip\") continue; n += o[k]; if (n > 100) break; }\nprint(n);")

let suites =
  [
    ( "interp.basics",
      [
        Alcotest.test_case "arithmetic" `Quick test_arithmetic;
        Alcotest.test_case "variables" `Quick test_variables;
        Alcotest.test_case "update expressions" `Quick test_update_expressions;
        Alcotest.test_case "control flow" `Quick test_control_flow;
        Alcotest.test_case "logic" `Quick test_logic;
      ] );
    ( "interp.functions",
      [
        Alcotest.test_case "functions" `Quick test_functions;
        Alcotest.test_case "closures" `Quick test_closures;
        Alcotest.test_case "mutual recursion, memoization" `Quick
          test_deep_recursion_and_state;
        Alcotest.test_case "globals" `Quick test_globals_across_functions;
      ] );
    ( "interp.data",
      [
        Alcotest.test_case "arrays" `Quick test_arrays;
        Alcotest.test_case "objects" `Quick test_objects;
        Alcotest.test_case "strings" `Quick test_strings;
        Alcotest.test_case "array higher-order methods" `Quick test_array_higher_order;
        Alcotest.test_case "switch statements" `Quick test_switch;
        Alcotest.test_case "sort with comparator" `Quick test_sort_comparator;
        Alcotest.test_case "for-in enumeration" `Quick test_for_in_enumeration;
        Alcotest.test_case "for-in break/continue" `Quick test_for_in_break_continue;
        Alcotest.test_case "typeof/equality" `Quick test_typeof_and_equality;
        Alcotest.test_case "builtins" `Quick test_builtin_integration;
        Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
      ] );
    ( "interp.properties",
      [ QCheck_alcotest.to_alcotest prop_pipeline_matches_direct_eval ] );
  ]
