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

(* The probes' loops, from position [i] on. *)
let rec masked_from mask cached args i =
  i >= Array.length args
  || ((i >= Array.length mask || (not mask.(i)) || Value.same_value args.(i) cached.(i))
     && masked_from mask cached args (i + 1))

let rec tags_from tags args i =
  i >= Array.length tags
  || ((if i < Array.length args then Value.tag_of args.(i) else Value.Tag_undefined) = tags.(i)
     && tags_from tags args (i + 1))

(* The probe. [Key_values] with a mask is the selective extension: only the
   burned-in positions are compared, and the tuple lengths must agree, so a
   masked position past the tuple holds [Undefined] on both sides.
   [Key_tags] compares the tuple as the callee will see it — missing
   arguments padded with [Undefined], extra arguments dropped at entry. *)
let matches key args =
  match key with
  | Key_generic -> true
  | Key_values (cached, None) -> Value.same_args args cached
  | Key_values (cached, Some mask) ->
    Array.length cached = Array.length args && masked_from mask cached args 0
  | Key_tags tags -> tags_from tags args 0

let to_string = function
  | Key_generic -> "generic"
  | Key_values (args, _) ->
    "("
    ^ String.concat ", " (Array.to_list (Array.map Value.to_display_string args))
    ^ ")"
  | Key_tags tags ->
    "[" ^ String.concat ", " (Array.to_list (Array.map Value.tag_to_string tags)) ^ "]"
