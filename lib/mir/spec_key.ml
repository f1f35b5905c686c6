open Runtime

type t =
  | Key_values of Value.t array * bool array option
  | Key_tags of Value.tag array
  | Key_generic

type known = Known_value of Value.t | Known_tag of Value.tag | Unknown

let at_entry key i =
  match key with
  | Key_values (args, mask) ->
    let burned = match mask with None -> true | Some m -> i < Array.length m && m.(i) in
    if not burned then Unknown
    else Known_value (if i < Array.length args then args.(i) else Value.Undefined)
  | Key_tags tags -> if i < Array.length tags then Known_tag tags.(i) else Unknown
  | Key_generic -> Unknown

(* The probe. [Key_values] with a mask is the selective extension: only the
   burned-in positions are compared, and the tuple lengths must agree, so a
   masked position past the tuple holds [Undefined] on both sides.
   [Key_tags] compares the tuple as the callee will see it — missing
   arguments padded with [Undefined], extra arguments dropped at entry. *)
let matches key args =
  match key with
  | Key_generic -> true
  | Key_values (cached, None) -> Value.same_args args cached
  | Key_values (cached, Some _) ->
    Array.length cached = Array.length args
    && (let ok = ref true in
        Array.iteri
          (fun i v ->
            match at_entry key i with
            | Known_value c -> if not (Value.same_value v c) then ok := false
            | Known_tag _ | Unknown -> ())
          args;
        !ok)
  | Key_tags tags ->
    let n = Array.length args in
    let ok = ref true in
    Array.iteri
      (fun i tag ->
        let got = if i < n then Value.tag_of args.(i) else Value.Tag_undefined in
        if got <> tag then ok := false)
      tags;
    !ok

let to_string = function
  | Key_generic -> "generic"
  | Key_values (args, _) ->
    "("
    ^ String.concat ", " (Array.to_list (Array.map Value.to_display_string args))
    ^ ")"
  | Key_tags tags ->
    "[" ^ String.concat ", " (Array.to_list (Array.map Value.tag_to_string tags)) ^ "]"
