(* Tests for runtime values, conversions and operator semantics. *)

open Runtime

let value = Alcotest.testable Value.pp (fun a b -> Value.same_value a b)

let check_value name expected actual = Alcotest.check value name expected actual

(* --- Value normalization --- *)

let test_norm_num () =
  check_value "integral double becomes Int" (Value.Int 3) (Value.norm_num 3.0);
  check_value "fraction stays Double" (Value.Double 3.5) (Value.norm_num 3.5);
  check_value "negative zero stays Double" (Value.Double (-0.0)) (Value.norm_num (-0.0));
  check_value "int32 max" (Value.Int 0x7FFFFFFF) (Value.norm_num 2147483647.0);
  check_value "overflow becomes Double" (Value.Double 2147483648.0)
    (Value.norm_num 2147483648.0);
  (match Value.norm_num Float.nan with
  | Value.Double f -> Alcotest.(check bool) "nan stays" true (Float.is_nan f)
  | _ -> Alcotest.fail "nan must be Double")

let test_of_int () =
  check_value "in range" (Value.Int 5) (Value.of_int 5);
  check_value "out of range" (Value.Double 4294967296.0) (Value.of_int 0x1_0000_0000)

let test_typeof () =
  let t v = Value.typeof v in
  Alcotest.(check string) "undefined" "undefined" (t Value.Undefined);
  Alcotest.(check string) "null" "object" (t Value.Null);
  Alcotest.(check string) "int" "number" (t (Value.Int 1));
  Alcotest.(check string) "double" "number" (t (Value.Double 1.5));
  Alcotest.(check string) "string" "string" (t (Value.Str "s"));
  Alcotest.(check string) "array" "object" (t (Value.Arr (Value.new_arr 0)));
  Alcotest.(check string) "object" "object" (t (Value.Obj (Value.new_obj ())));
  Alcotest.(check string) "native" "function" (t (Value.Native_fun "print"))

let test_array_growth () =
  let a = Value.new_arr 2 in
  Value.arr_set a 10 (Value.Int 7);
  Alcotest.(check int) "length grows" 11 a.Value.length;
  check_value "hole" Value.Undefined (Value.arr_get a 5);
  check_value "value" (Value.Int 7) (Value.arr_get a 10);
  check_value "oob read" Value.Undefined (Value.arr_get a 100)

let test_same_value_identity () =
  let a = Value.Arr (Value.new_arr 1) in
  let b = Value.Arr (Value.new_arr 1) in
  Alcotest.(check bool) "same array" true (Value.same_value a a);
  Alcotest.(check bool) "different arrays" false (Value.same_value a b);
  Alcotest.(check bool) "NaN cache-equal" true
    (Value.same_value (Value.Double Float.nan) (Value.Double Float.nan))

let test_same_args () =
  let o = Value.Obj (Value.new_obj ()) in
  Alcotest.(check bool) "equal tuple" true
    (Value.same_args [| Value.Int 1; o |] [| Value.Int 1; o |]);
  Alcotest.(check bool) "different arity" false
    (Value.same_args [| Value.Int 1 |] [| Value.Int 1; Value.Int 2 |]);
  Alcotest.(check bool) "different value" false
    (Value.same_args [| Value.Int 1 |] [| Value.Int 2 |])

(* --- Conversions --- *)

let test_to_number () =
  Alcotest.(check (float 0.0)) "null" 0.0 (Convert.to_number Value.Null);
  Alcotest.(check (float 0.0)) "true" 1.0 (Convert.to_number (Value.Bool true));
  Alcotest.(check (float 0.0)) "numeric string" 42.5 (Convert.to_number (Value.Str "42.5"));
  Alcotest.(check (float 0.0)) "empty string" 0.0 (Convert.to_number (Value.Str ""));
  Alcotest.(check bool) "garbage string" true
    (Float.is_nan (Convert.to_number (Value.Str "abc")));
  Alcotest.(check bool) "undefined" true (Float.is_nan (Convert.to_number Value.Undefined))

let test_to_int32_wraps () =
  Alcotest.(check int) "wraps" (-2147483648)
    (Convert.to_int32 (Value.Double 2147483648.0));
  Alcotest.(check int) "nan is 0" 0 (Convert.to_int32 (Value.Double Float.nan));
  Alcotest.(check int) "negative" (-1) (Convert.to_int32 (Value.Double (-1.0)));
  Alcotest.(check int) "truncates" 3 (Convert.to_int32 (Value.Double 3.9))

let test_to_boolean () =
  let t v = Convert.to_boolean v in
  Alcotest.(check bool) "0" false (t (Value.Int 0));
  Alcotest.(check bool) "nan" false (t (Value.Double Float.nan));
  Alcotest.(check bool) "empty string" false (t (Value.Str ""));
  Alcotest.(check bool) "object" true (t (Value.Obj (Value.new_obj ())));
  Alcotest.(check bool) "string" true (t (Value.Str "x"))

(* --- Operators --- *)

let test_add_semantics () =
  check_value "int add" (Value.Int 3) (Ops.binop Ops.Add (Value.Int 1) (Value.Int 2));
  check_value "string concat" (Value.Str "a1")
    (Ops.binop Ops.Add (Value.Str "a") (Value.Int 1));
  check_value "number plus string" (Value.Str "1a")
    (Ops.binop Ops.Add (Value.Int 1) (Value.Str "a"));
  check_value "int overflow to double" (Value.Double 4294967294.0)
    (Ops.binop Ops.Add (Value.Int 2147483647) (Value.Int 2147483647));
  check_value "undefined add" (Value.Double Float.nan)
    (Ops.binop Ops.Add Value.Undefined (Value.Int 1))

let test_numeric_ops () =
  check_value "div is float" (Value.Double 2.5) (Ops.binop Ops.Div (Value.Int 5) (Value.Int 2));
  check_value "div exact normalizes" (Value.Int 2) (Ops.binop Ops.Div (Value.Int 4) (Value.Int 2));
  check_value "mod" (Value.Int 1) (Ops.binop Ops.Mod (Value.Int 7) (Value.Int 3));
  check_value "mod negative" (Value.Int (-1)) (Ops.binop Ops.Mod (Value.Int (-7)) (Value.Int 3));
  check_value "string coerced mul" (Value.Int 12)
    (Ops.binop Ops.Mul (Value.Str "3") (Value.Str "4"))

let test_bitwise_ops () =
  check_value "and" (Value.Int 8) (Ops.binop Ops.Bit_and (Value.Int 12) (Value.Int 10));
  check_value "shl wraps" (Value.Int (-2147483648))
    (Ops.binop Ops.Shl (Value.Int 1) (Value.Int 31));
  check_value "shr sign extends" (Value.Int (-4))
    (Ops.binop Ops.Shr (Value.Int (-7)) (Value.Int 1));
  check_value "ushr" (Value.Int 15) (Ops.binop Ops.Ushr (Value.Int (-7)) (Value.Int 28));
  check_value "double to int32 first" (Value.Int 3)
    (Ops.binop Ops.Bit_or (Value.Double 3.7) (Value.Int 0))

let test_equality () =
  let b e = Value.Bool e in
  check_value "loose string num" (b true) (Ops.cmp Ops.Eq (Value.Str "5") (Value.Int 5));
  check_value "strict string num" (b false)
    (Ops.cmp Ops.Strict_eq (Value.Str "5") (Value.Int 5));
  check_value "null undefined loose" (b true) (Ops.cmp Ops.Eq Value.Null Value.Undefined);
  check_value "null undefined strict" (b false)
    (Ops.cmp Ops.Strict_eq Value.Null Value.Undefined);
  check_value "nan neq nan" (b false)
    (Ops.cmp Ops.Strict_eq (Value.Double Float.nan) (Value.Double Float.nan));
  check_value "bool coerces" (b true) (Ops.cmp Ops.Eq (Value.Bool true) (Value.Int 1));
  let o = Value.Obj (Value.new_obj ()) in
  check_value "object identity" (b true) (Ops.cmp Ops.Eq o o);
  check_value "distinct objects" (b false)
    (Ops.cmp Ops.Eq o (Value.Obj (Value.new_obj ())))

let test_relational () =
  check_value "string compare" (Value.Bool true)
    (Ops.cmp Ops.Lt (Value.Str "abc") (Value.Str "abd"));
  check_value "mixed numeric" (Value.Bool true) (Ops.cmp Ops.Lt (Value.Str "9") (Value.Int 10));
  check_value "nan incomparable" (Value.Bool false)
    (Ops.cmp Ops.Le (Value.Double Float.nan) (Value.Int 1))

let relational_ops = [ Ops.Lt; Ops.Le; Ops.Gt; Ops.Ge ]

(* The int fast path returns what the general path (both operands
   converted to numbers, or compared as strings) does, over a grid that
   holds every kind of primitive. *)
let test_relational_fast_path () =
  let grid =
    [
      Value.Int 0; Value.Int 1; Value.Int (-1); Value.Int 2147483647; Value.Int (-2147483648);
      Value.Double 0.5; Value.Double 0.0; Value.Double (-0.0); Value.Double Float.nan;
      Value.Double Float.infinity; Value.Double Float.neg_infinity; Value.Str "";
      Value.Str "1"; Value.Str "10"; Value.Str "abc"; Value.Undefined; Value.Null;
      Value.Bool true; Value.Bool false;
    ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              check_value
                (Printf.sprintf "%s %s %s" (Value.to_display_string a) (Ops.cmp_to_string op)
                   (Value.to_display_string b))
                (Value.Bool (Ops.relational op a b))
                (Ops.cmp op a b))
            grid)
        grid)
    relational_ops

let test_int_compare_allocates_nothing () =
  let a = Value.Int 3 and b = Value.Int 7 in
  let ops = Array.of_list relational_ops in
  let before = Gc.minor_words () in
  for k = 0 to 9_999 do
    ignore (Ops.cmp ops.(k land 3) a b)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 10,000 int compares" 0. words

let test_unops () =
  check_value "neg" (Value.Int (-5)) (Ops.unop Ops.Neg (Value.Int 5));
  check_value "not" (Value.Bool true) (Ops.unop Ops.Not (Value.Int 0));
  check_value "bitnot" (Value.Int (-6)) (Ops.unop Ops.Bit_not (Value.Int 5));
  check_value "typeof" (Value.Str "number") (Ops.unop Ops.Typeof (Value.Int 1));
  check_value "tonumber string" (Value.Int 7) (Ops.unop Ops.To_number (Value.Str "7"))

(* --- Builtins --- *)

let test_builtin_math () =
  check_value "floor" (Value.Int 3) (Builtins.call "Math.floor" [| Value.Double 3.7 |]);
  check_value "pow" (Value.Int 1024) (Builtins.call "Math.pow" [| Value.Int 2; Value.Int 10 |]);
  check_value "min" (Value.Int 1) (Builtins.call "Math.min" [| Value.Int 4; Value.Int 1 |]);
  check_value "abs" (Value.Int 2) (Builtins.call "Math.abs" [| Value.Int (-2) |])

let test_builtin_string_methods () =
  let s = Value.Str "hello" in
  let m name args = Option.get (Builtins.method_call s name args) in
  check_value "charCodeAt" (Value.Int 104) (m "charCodeAt" [| Value.Int 0 |]);
  check_value "charAt" (Value.Str "e") (m "charAt" [| Value.Int 1 |]);
  check_value "indexOf" (Value.Int 2) (m "indexOf" [| Value.Str "ll" |]);
  check_value "substring" (Value.Str "ell") (m "substring" [| Value.Int 1; Value.Int 4 |]);
  check_value "substring swaps" (Value.Str "ell")
    (m "substring" [| Value.Int 4; Value.Int 1 |]);
  check_value "upper" (Value.Str "HELLO") (m "toUpperCase" [||]);
  check_value "replace" (Value.Str "heLLo") (m "replace" [| Value.Str "ll"; Value.Str "LL" |])

let test_builtin_split_join () =
  match Builtins.method_call (Value.Str "a,b,c") "split" [| Value.Str "," |] with
  | Some (Value.Arr a) ->
    Alcotest.(check int) "3 parts" 3 a.Value.length;
    check_value "first" (Value.Str "a") (Value.arr_get a 0);
    let joined = Option.get (Builtins.method_call (Value.Arr a) "join" [| Value.Str "-" |]) in
    check_value "join" (Value.Str "a-b-c") joined
  | _ -> Alcotest.fail "split failed"

let test_builtin_array_methods () =
  let a = Value.arr_of_list [ Value.Int 1; Value.Int 2 ] in
  let m name args = Option.get (Builtins.method_call (Value.Arr a) name args) in
  check_value "push returns length" (Value.Int 3) (m "push" [| Value.Int 9 |]);
  check_value "pop" (Value.Int 9) (m "pop" [||]);
  Alcotest.(check int) "length back to 2" 2 a.Value.length;
  check_value "indexOf" (Value.Int 1) (m "indexOf" [| Value.Int 2 |]);
  check_value "shift" (Value.Int 1) (m "shift" [||]);
  Alcotest.(check int) "after shift" 1 a.Value.length

let test_builtin_prop () =
  Alcotest.(check bool) "string length" true
    (Builtins.get_prop (Value.Str "abcd") "length" = Some (Value.Int 4));
  Alcotest.(check bool) "unknown prop" true (Builtins.get_prop (Value.Str "x") "nope" = None)

let test_builtin_purity () =
  Alcotest.(check bool) "floor pure" true (Builtins.is_pure "Math.floor");
  Alcotest.(check bool) "random impure" false (Builtins.is_pure "Math.random");
  Alcotest.(check bool) "print impure" false (Builtins.is_pure "print")

let test_obj_key_order () =
  let o = Value.new_obj () in
  Value.obj_set o "b" (Value.Int 1);
  Value.obj_set o "a" (Value.Int 2);
  Value.obj_set o "c" (Value.Int 3);
  (* overwriting keeps the original position *)
  Value.obj_set o "b" (Value.Int 10);
  Alcotest.(check (list string)) "insertion order" [ "b"; "a"; "c" ] (Value.obj_keys o);
  Value.obj_set o "d" (Value.Int 4);
  Alcotest.(check (list string)) "append" [ "b"; "a"; "c"; "d" ] (Value.obj_keys o);
  let built = Value.obj_with_props [ ("x", Value.Int 1); ("y", Value.Int 2) ] in
  Alcotest.(check (list string)) "literal order" [ "x"; "y" ] (Value.obj_keys built)

let test_keys_native () =
  let o = Value.obj_with_props [ ("p", Value.Int 1); ("q", Value.Int 2) ] in
  (match Builtins.call "__keys" [| Value.Obj o |] with
  | Value.Arr a ->
    Alcotest.(check int) "two keys" 2 a.Value.length;
    Alcotest.(check bool) "first is p" true (Value.arr_get a 0 = Value.Str "p")
  | _ -> Alcotest.fail "expected an array");
  (match Builtins.call "__keys" [| Value.Arr (Value.new_arr 3) |] with
  | Value.Arr a ->
    Alcotest.(check bool) "indices as strings" true
      (a.Value.length = 3 && Value.arr_get a 2 = Value.Str "2")
  | _ -> Alcotest.fail "expected an array");
  (match Builtins.call "__keys" [| Value.Int 7 |] with
  | Value.Arr a -> Alcotest.(check int) "primitive: none" 0 a.Value.length
  | _ -> Alcotest.fail "expected an array");
  Alcotest.(check bool) "impure (never folded)" false (Builtins.is_pure "__keys")

let test_number_edge_cases () =
  (* -0 normalizes to Int 0 only when it would be indistinguishable. *)
  Alcotest.(check bool) "-0.0 stays a double" true
    (match Value.norm_num (-0.0) with Value.Double _ -> true | _ -> false);
  (* int32 boundary: 2^31-1 is an Int, 2^31 is a Double *)
  Alcotest.(check bool) "int32 max" true (Value.norm_num 2147483647.0 = Value.Int 2147483647);
  Alcotest.(check bool) "int32 max + 1" true
    (match Value.norm_num 2147483648.0 with Value.Double _ -> true | _ -> false);
  (* NaN propagates through arithmetic but | 0 gives 0 *)
  let nan_v = Ops.binop Ops.Add (Value.Double Float.nan) (Value.Int 1) in
  Alcotest.(check bool) "NaN + 1 is NaN" true
    (match nan_v with Value.Double f -> Float.is_nan f | _ -> false);
  Alcotest.(check bool) "NaN | 0 = 0" true
    (Ops.binop Ops.Bit_or nan_v (Value.Int 0) = Value.Int 0);
  (* division by zero *)
  Alcotest.(check bool) "1/0 = Infinity" true
    (match Ops.binop Ops.Div (Value.Int 1) (Value.Int 0) with
    | Value.Double f -> f = Float.infinity
    | _ -> false);
  (* string to number corners *)
  Alcotest.(check bool) "empty string is 0" true (Convert.to_number (Value.Str "") = 0.0);
  Alcotest.(check bool) "garbage is NaN" true
    (Float.is_nan (Convert.to_number (Value.Str "12ab")))

let test_sort_comparator_hof () =
  let a = Value.arr_of_list [ Value.Int 3; Value.Int 1; Value.Int 2 ] in
  let call f args =
    ignore f;
    Ops.binop Ops.Sub args.(0) args.(1)
  in
  (match Builtins.method_call ~call (Value.Arr a) "sort" [| Value.Bool true |] with
  | Some (Value.Arr sorted) ->
    Alcotest.(check (list bool)) "ascending" [ true; true; true ]
      (List.init 3 (fun i -> Value.arr_get sorted i = Value.Int (i + 1)))
  | _ -> Alcotest.fail "sort with comparator failed")

let test_deterministic_random () =
  Builtins.reset_random 123;
  let a = Builtins.call "Math.random" [||] in
  Builtins.reset_random 123;
  let b = Builtins.call "Math.random" [||] in
  Alcotest.(check bool) "same seed same value" true (Value.same_value a b);
  (match a with
  | Value.Double f -> Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  | _ -> Alcotest.fail "random must be double")

(* --- qcheck properties --- *)

let arb_number =
  QCheck.(
    oneof
      [
        map (fun n -> Value.Int (n land 0x7FFFFFFF)) int;
        map (fun f -> Value.norm_num f) (float_range (-1e9) 1e9);
      ])

let prop_norm_idempotent =
  QCheck.Test.make ~name:"norm_num is idempotent through to_number" ~count:500
    QCheck.(float_range (-1e12) 1e12)
    (fun f ->
      match Value.norm_num f with
      | Value.Int n -> float_of_int n = f
      | Value.Double g -> g = f
      | _ -> false)

let prop_add_commutes_numeric =
  QCheck.Test.make ~name:"numeric + commutes" ~count:500 (QCheck.pair arb_number arb_number)
    (fun (a, b) ->
      Value.same_value (Ops.binop Ops.Add a b) (Ops.binop Ops.Add b a))

let prop_strict_eq_reflexive =
  QCheck.Test.make ~name:"=== reflexive for non-NaN" ~count:500 arb_number (fun v ->
      match v with
      | Value.Double f when Float.is_nan f -> true
      | _ -> Ops.strict_eq v v)

let prop_to_int32_in_range =
  QCheck.Test.make ~name:"to_int32 lands in int32 range" ~count:500
    QCheck.(float_range (-1e15) 1e15)
    (fun f ->
      let n = Convert.to_int32 (Value.Double f) in
      n >= Value.int32_min && n <= Value.int32_max)

let prop_bitops_int32_closed =
  QCheck.Test.make ~name:"bitwise results stay int32" ~count:500
    QCheck.(triple (int_range (-2147483648) 2147483647) (int_range (-2147483648) 2147483647) (int_range 0 31))
    (fun (a, b, s) ->
      let ok v = match v with Value.Int n -> n >= Value.int32_min && n <= Value.int32_max | _ -> false in
      ok (Ops.binop Ops.Bit_and (Value.Int a) (Value.Int b))
      && ok (Ops.binop Ops.Bit_xor (Value.Int a) (Value.Int b))
      && ok (Ops.binop Ops.Shl (Value.Int a) (Value.Int s))
      && ok (Ops.binop Ops.Shr (Value.Int a) (Value.Int s)))

let suites =
  [
    ( "runtime.value",
      [
        Alcotest.test_case "norm_num" `Quick test_norm_num;
        Alcotest.test_case "of_int" `Quick test_of_int;
        Alcotest.test_case "typeof" `Quick test_typeof;
        Alcotest.test_case "array growth" `Quick test_array_growth;
        Alcotest.test_case "same_value identity" `Quick test_same_value_identity;
        Alcotest.test_case "same_args" `Quick test_same_args;
        QCheck_alcotest.to_alcotest prop_norm_idempotent;
      ] );
    ( "runtime.convert",
      [
        Alcotest.test_case "to_number" `Quick test_to_number;
        Alcotest.test_case "to_int32 wraps" `Quick test_to_int32_wraps;
        Alcotest.test_case "to_boolean" `Quick test_to_boolean;
        QCheck_alcotest.to_alcotest prop_to_int32_in_range;
      ] );
    ( "runtime.ops",
      [
        Alcotest.test_case "add semantics" `Quick test_add_semantics;
        Alcotest.test_case "numeric ops" `Quick test_numeric_ops;
        Alcotest.test_case "bitwise ops" `Quick test_bitwise_ops;
        Alcotest.test_case "equality" `Quick test_equality;
        Alcotest.test_case "relational" `Quick test_relational;
        Alcotest.test_case "int fast path matches general path" `Quick
          test_relational_fast_path;
        Alcotest.test_case "int compare allocates nothing" `Quick
          test_int_compare_allocates_nothing;
        Alcotest.test_case "unary ops" `Quick test_unops;
        QCheck_alcotest.to_alcotest prop_add_commutes_numeric;
        QCheck_alcotest.to_alcotest prop_strict_eq_reflexive;
        QCheck_alcotest.to_alcotest prop_bitops_int32_closed;
      ] );
    ( "runtime.builtins",
      [
        Alcotest.test_case "math" `Quick test_builtin_math;
        Alcotest.test_case "string methods" `Quick test_builtin_string_methods;
        Alcotest.test_case "split/join" `Quick test_builtin_split_join;
        Alcotest.test_case "object key order" `Quick test_obj_key_order;
        Alcotest.test_case "__keys native" `Quick test_keys_native;
        Alcotest.test_case "number edge cases" `Quick test_number_edge_cases;
        Alcotest.test_case "sort comparator dispatch" `Quick test_sort_comparator_hof;
        Alcotest.test_case "array methods" `Quick test_builtin_array_methods;
        Alcotest.test_case "builtin props" `Quick test_builtin_prop;
        Alcotest.test_case "purity" `Quick test_builtin_purity;
        Alcotest.test_case "deterministic random" `Quick test_deterministic_random;
      ] );
  ]
