(** Lock-order discipline.

    The deadlock-freedom argument behind the transaction prepare path
    is classical two-phase locking over a {e canonically ordered}
    footprint: if every multi-key acquisition walks its keys in one
    global order (sorted, deduplicated), two transactions can never
    hold-and-wait in a cycle.  The runtime samples this (the swarm
    never finds the deadlock that cannot happen); this pass proves the
    code shape on every commit.

    A lock acquisition is a [Hashtbl.replace]/[Hashtbl.add] into a
    table whose name has a word starting with "lock" ([locks],
    [lock_table]), or an assignment [c.lock <- txid] to a mutable
    record field so named.  Releases ([Hashtbl.remove], or a field
    assignment of a constant such as [c.lock <- ""]) are free:
    dropping locks in any order cannot deadlock.  Every acquisition
    must sit in a {e proven iteration}, one of:
    - the function argument of an iteration ([List.iter]/[iteri]/
      [fold_left], [Array.iter]/[iteri] — resolved by uid,
      alias-proof) whose collection is dominated by a canonical sort;
    - the body of a recursive {e lock walk} [let rec f ... = ...]
      whose every recursive call passes, as its last argument, the
      tail of a list its body matched ([_ :: rest]), and whose every
      other call passes, as its last argument, a collection dominated
      by a canonical sort.
    An acquisition anywhere else is a finding, and so is an iteration
    or a walk call over an undominated collection, and a walk's
    recursive call on anything but a matched tail.

    A collection is dominated by a canonical sort when it is an
    application of [List.sort_uniq]/[List.sort] (or an [Array] sort),
    or of a function marked [[@lint.canonical_order]] — a builder the
    code vouches for, whose tests must show it equals [List.sort_uniq]
    — or a variable whose definition (followed through [let]-chains in
    the enclosing scope) is one.

    A finding line can be silenced with [(* lint: lockorder-ok *)]
    after review — e.g. a single-key acquisition that cannot
    interleave. *)

let rule = "lock-order"

let iter_fns = [ "iter"; "iteri"; "fold_left" ]
let acquire_fns = [ "replace"; "add" ]
let sort_fns = [ "sort_uniq"; "sort"; "stable_sort"; "fast_sort" ]
let canonical_attr = "canonical_order"

(* A word of the name (split at '_') starts with "lock": [lock],
   [locks], [lock_table], [e_lock] — but not [clock] or [blocked]. *)
let name_mentions_lock s =
  let starts_lock w = String.length w >= 4 && String.sub w 0 4 = "lock" in
  List.exists starts_lock
    (String.split_on_char '_' (String.lowercase_ascii s))

(* The "name" of the table expression a Hashtbl operation targets:
   a record field ([t.locks]), a variable ([locks]), or a dotted path
   ([Registry.locks]). *)
let rec table_name (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_field (_, _, lbl) -> Some lbl.Types.lbl_name
  | Typedtree.Texp_ident (p, _, _) -> Some (Path.last p)
  | Typedtree.Texp_apply (f, _) -> table_name f
  | _ -> None

(* positional (unlabelled, present) arguments of an application *)
let positional args =
  List.filter_map
    (function Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

let last_positional args =
  match positional args with
  | [] -> None
  | pos -> List.nth_opt pos (List.length pos - 1)

(* A constant or a constant constructor ([""], [None]): what a field
   assignment stores to release a lock, never a holder's identity. *)
let releases (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_constant _ | Typedtree.Texp_construct (_, _, []) -> true
  | _ -> false

(* The lock this one expression acquires, if it is an acquisition (its
   subexpressions are not looked at). *)
let acquisition (e : Typedtree.expression) : string option =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, args)
    when Typed.resolves_to ~unit_:"Stdlib__Hashtbl" ~names:acquire_fns f -> (
      match positional args with
      | tbl :: _ -> (
          match table_name tbl with
          | Some n when name_mentions_lock n -> Some n
          | _ -> None)
      | [] -> None)
  | Typedtree.Texp_setfield (_, _, lbl, v)
    when name_mentions_lock lbl.Types.lbl_name && not (releases v) ->
      Some lbl.Types.lbl_name
  | _ -> None

(* Does this function-argument body acquire a lock?  Returns the name
   of the lock table, or of the lock field, if so. *)
let acquires (body : Typedtree.expression) : string option =
  let found = ref None in
  let expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match acquisition e with
    | Some n -> if !found = None then found := Some n
    | None -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it body;
  !found

(* A value is named across units by the compilation unit and the name
   its uid and path give: a binding [let f] of unit [u] is [(u, "f")],
   and so is every use of it, through any alias.  Two same-named
   bindings of one unit share a name, which can only add findings. *)
let ident_key (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, vd) -> (
      match Typed.uid_unit vd.Types.val_uid with
      | Some cu -> Some (cu, Path.last p)
      | None -> None)
  | _ -> None

let binding_key (u : Typed.unit_info) (vb : Typedtree.value_binding) =
  match vb.Typedtree.vb_pat.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Some (u.Typed.u_name, Ident.name id)
  | _ -> None

(* the bindings marked [[@lint.canonical_order]], in every unit *)
let canonical_builders units =
  let found = ref [] in
  List.iter
    (fun (u : Typed.unit_info) ->
      let value_binding self (vb : Typedtree.value_binding) =
        (if Typed.has_attr vb.Typedtree.vb_attributes canonical_attr then
           match binding_key u vb with
           | Some k -> found := k :: !found
           | None -> ());
        Tast_iterator.default_iterator.value_binding self vb
      in
      let it = { Tast_iterator.default_iterator with value_binding } in
      it.Tast_iterator.structure it u.Typed.u_structure)
    units;
  !found

(* Is this collection expression dominated by a canonical sort?
   Either directly an application of a List/Array sort or of a
   canonical builder, or a variable whose visible [let]-definition is
   (chains followed to a small depth). *)
let rec sorted ~builders ~env depth (e : Typedtree.expression) =
  depth > 0
  &&
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, _)
    when Typed.resolves_to ~unit_:"Stdlib__List" ~names:sort_fns f
         || Typed.resolves_to ~unit_:"Stdlib__Array" ~names:sort_fns f ->
      true
  | Typedtree.Texp_apply (f, _) -> (
      match ident_key f with
      | Some k -> List.mem k builders
      | None -> false)
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
      match List.find_opt (fun (i, _) -> Ident.same i id) env with
      | Some (_, def) -> sorted ~builders ~env (depth - 1) def
      | None -> false)
  | _ -> false

(* A call of a possible lock walk, judged once every walk is known. *)
type call = {
  callee : string * string;
  inside : bool;  (** within the callee's own body: a recursive call *)
  on_tail : bool;  (** its last argument is a matched list tail *)
  on_sorted : bool;  (** its last argument is canonically sorted *)
  c_loc : Location.t;
  c_source : string;
}

let finding ~source ~loc msg =
  {
    Report.file = source;
    line = Typed.line_of loc;
    col = Typed.col_of loc;
    rule;
    msg;
  }

let unsorted_msg what lock =
  Fmt.str
    "multi-key lock acquisition into %s %s a footprint not dominated by a \
     canonical List.sort_uniq — unsorted acquisition orders can deadlock \
     under hold-and-wait; sort (and dedupe) the footprint first"
    lock what

(* Where an expression sits, for an acquisition in it: the innermost
   iteration body or recursive binding around it, if any. *)
type context = Top | Iteration | Walk of (string * string)

let run ~(units : Typed.unit_info list)
    ~(pragmas_of : string -> (int * string) list) : Report.finding list =
  let builders = canonical_builders units in
  let findings = ref [] in
  (* [lock_walks]: each recursive binding that acquires, with its
     lock — proven once its calls are *)
  let calls = ref [] and lock_walks = ref [] in
  let silenced source line =
    List.exists
      (fun (pl, tok) ->
        String.equal tok "lockorder-ok" && (pl = line || pl = line - 1))
      (pragmas_of source)
  in
  let report ~source ~loc msg =
    if not (silenced source (Typed.line_of loc)) then
      findings := finding ~source ~loc msg :: !findings
  in
  List.iter
    (fun (u : Typed.unit_info) ->
      let source = u.Typed.u_source in
      (* [env] maps let-bound idents in scope to their definitions;
         maintained with save/restore around each [let] body, so
         shadowing and scope exit behave like the language.  [tails]
         holds every ident bound as the tail of a list pattern;
         [walks] the recursive bindings whose bodies enclose the
         current expression, innermost first. *)
      let env = ref [] and tails = ref [] in
      let context = ref Top and walks = ref [] in
      let within ctx f =
        let saved = !context in
        context := ctx;
        f ();
        context := saved
      in
      let recursive_bindings self vbs =
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match binding_key u vb with
            | Some k ->
                let saved = !walks in
                walks := k :: saved;
                within (Walk k) (fun () ->
                    self.Tast_iterator.value_binding self vb);
                walks := saved
            | None -> self.Tast_iterator.value_binding self vb)
          vbs
      in
      let pat (type k) (self : Tast_iterator.iterator)
          (p : k Typedtree.general_pattern) =
        (match p.Typedtree.pat_desc with
        | Typedtree.Tpat_construct (_, cd, [ _; tl ], _)
          when String.equal cd.Types.cstr_name "::" -> (
            match tl.Typedtree.pat_desc with
            | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) ->
                tails := id :: !tails
            | _ -> ())
        | _ -> ());
        Tast_iterator.default_iterator.pat self p
      in
      let on_tail (e : Typedtree.expression) =
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_ident (Path.Pident id, _, _) ->
            List.exists (Ident.same id) !tails
        | _ -> false
      in
      let rec expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
        (match acquisition e with
        | None -> ()
        | Some lock -> (
            let loc = e.Typedtree.exp_loc in
            match !context with
            | Iteration -> ()
            | Walk walk ->
                if not (List.mem_assoc walk !lock_walks) then
                  lock_walks := (walk, lock) :: !lock_walks
            | Top ->
                report ~source ~loc
                  (Fmt.str
                     "lock acquisition into %s outside a proven iteration — \
                      take multi-key locks in an iteration or recursive \
                      walk over a canonically sorted footprint"
                     lock)));
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_let (rf, vbs, body) ->
            (match rf with
            | Asttypes.Recursive -> recursive_bindings self vbs
            | Asttypes.Nonrecursive ->
                List.iter (fun (vb : Typedtree.value_binding) ->
                    expr self vb.Typedtree.vb_expr) vbs);
            let saved = !env in
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match vb.Typedtree.vb_pat.Typedtree.pat_desc with
                | Typedtree.Tpat_var (id, _) ->
                    env := (id, vb.Typedtree.vb_expr) :: !env
                | _ -> ())
              vbs;
            expr self body;
            env := saved
        | Typedtree.Texp_apply (f, args)
          when Typed.resolves_to ~unit_:"Stdlib__List" ~names:iter_fns f
               || Typed.resolves_to ~unit_:"Stdlib__Array"
                    ~names:[ "iter"; "iteri" ] f ->
            let is_fn (a : Typedtree.expression) =
              match a.Typedtree.exp_desc with
              | Typedtree.Texp_function _ -> true
              | _ -> false
            in
            (match (List.find_opt is_fn (positional args), last_positional args) with
            | Some fn, Some coll when not (sorted ~builders ~env:!env 8 coll)
              -> (
                match acquires fn with
                | Some lock ->
                    report ~source ~loc:e.Typedtree.exp_loc
                      (unsorted_msg "iterates" lock)
                | None -> ())
            | _ -> ());
            self.Tast_iterator.expr self f;
            List.iter
              (function
                | _, Some a when is_fn a ->
                    within Iteration (fun () -> self.Tast_iterator.expr self a)
                | _, Some a -> self.Tast_iterator.expr self a
                | _, None -> ())
              args
        | Typedtree.Texp_apply (f, args) ->
            (match (ident_key f, last_positional args) with
            | Some callee, Some arg ->
                calls :=
                  {
                    callee;
                    inside = List.mem callee !walks;
                    on_tail = on_tail arg;
                    on_sorted = sorted ~builders ~env:!env 8 arg;
                    c_loc = e.Typedtree.exp_loc;
                    c_source = source;
                  }
                  :: !calls
            | _ -> ());
            Tast_iterator.default_iterator.expr self e
        | _ -> Tast_iterator.default_iterator.expr self e
      in
      let structure_item self (si : Typedtree.structure_item) =
        match si.Typedtree.str_desc with
        | Typedtree.Tstr_value (Asttypes.Recursive, vbs) ->
            recursive_bindings self vbs
        | _ -> Tast_iterator.default_iterator.structure_item self si
      in
      let it =
        { Tast_iterator.default_iterator with expr; pat; structure_item }
      in
      it.Tast_iterator.structure it u.Typed.u_structure)
    units;
  (* a recursive binding that acquires is a lock walk: each of its
     calls must recurse on a matched tail, or start on a sorted
     footprint *)
  List.iter
    (fun (walk, lock) ->
      List.iter
        (fun c ->
          if c.callee = walk then
            if c.inside then begin
              if not c.on_tail then
                report ~source:c.c_source ~loc:c.c_loc
                  (Fmt.str
                     "recursive lock walk into %s recurses on something \
                      other than the tail of a list it matched — the walk \
                      must follow its footprint's order"
                     lock)
            end
            else if not c.on_sorted then
              report ~source:c.c_source ~loc:c.c_loc (unsorted_msg "walks" lock))
        !calls)
    !lock_walks;
  List.rev !findings
