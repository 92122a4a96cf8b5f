(** Lock-order discipline.

    The deadlock-freedom argument behind the transaction prepare path
    is classical two-phase locking over a {e canonically ordered}
    footprint: if every multi-key acquisition walks its keys in one
    global order (sorted, deduplicated), two transactions can never
    hold-and-wait in a cycle.  The runtime samples this (the swarm
    never finds the deadlock that cannot happen); this pass proves the
    code shape on every commit.

    What is checked: every iteration ([List.iter]/[iteri]/[fold_left],
    [Array.iter]/[iteri] — resolved by uid, alias-proof) whose body
    acquires a lock — a [Hashtbl.replace]/[Hashtbl.add] into a table
    whose name mentions "lock", or an assignment [c.lock <- txid] to a
    mutable record field whose name mentions "lock" — must iterate a
    collection {e dominated by a canonical sort}: the collection
    expression is a [List.sort_uniq]/[List.sort] application, or a
    variable whose definition (followed through [let]-chains in the
    enclosing scope) is one.  Releases ([Hashtbl.remove], or a field
    assignment of a constant such as [c.lock <- ""]) are free:
    dropping locks in any order cannot deadlock.

    A finding line can be silenced with [(* lint: lockorder-ok *)]
    after review — e.g. a single-key loop that cannot interleave. *)

let rule = "lock-order"

let iter_fns = [ "iter"; "iteri"; "fold_left" ]
let acquire_fns = [ "replace"; "add" ]
let sort_fns = [ "sort_uniq"; "sort"; "stable_sort"; "fast_sort" ]

let name_mentions_lock s =
  let s = String.lowercase_ascii s in
  let n = String.length s in
  let rec go i = i + 4 <= n && (String.sub s i 4 = "lock" || go (i + 1)) in
  go 0

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

(* A constant or a constant constructor ([""], [None]): what a field
   assignment stores to release a lock, never a holder's identity. *)
let releases (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_constant _ | Typedtree.Texp_construct (_, _, []) -> true
  | _ -> false

(* Does this function-argument body acquire a lock?  Returns the name
   of the lock table, or of the lock field, if so. *)
let acquires (body : Typedtree.expression) : string option =
  let found = ref None in
  let expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_apply (f, args)
      when Typed.resolves_to ~unit_:"Stdlib__Hashtbl" ~names:acquire_fns f -> (
        match positional args with
        | tbl :: _ -> (
            match table_name tbl with
            | Some n when name_mentions_lock n ->
                if !found = None then found := Some n
            | _ -> ())
        | [] -> ())
    | Typedtree.Texp_setfield (_, _, lbl, v)
      when name_mentions_lock lbl.Types.lbl_name && not (releases v) ->
        if !found = None then found := Some lbl.Types.lbl_name
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it body;
  !found

(* Is this collection expression dominated by a canonical sort?
   Either directly an application of List/Array sort, or a variable
   whose visible [let]-definition is (chains followed to a small
   depth). *)
let rec sorted ~env depth (e : Typedtree.expression) =
  depth > 0
  &&
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, _)
    when Typed.resolves_to ~unit_:"Stdlib__List" ~names:sort_fns f
         || Typed.resolves_to ~unit_:"Stdlib__Array" ~names:sort_fns f ->
      true
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
      match List.find_opt (fun (i, _) -> Ident.same i id) env with
      | Some (_, def) -> sorted ~env (depth - 1) def
      | None -> false)
  | _ -> false

let run ~(units : Typed.unit_info list)
    ~(pragmas_of : string -> (int * string) list) : Report.finding list =
  let findings = ref [] in
  List.iter
    (fun (u : Typed.unit_info) ->
      let silenced line =
        List.exists
          (fun (pl, tok) ->
            String.equal tok "lockorder-ok" && (pl = line || pl = line - 1))
          (pragmas_of u.Typed.u_source)
      in
      (* [env] maps let-bound idents in scope to their definitions;
         maintained with save/restore around each [let] body, so
         shadowing and scope exit behave like the language. *)
      let env = ref [] in
      let rec expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_let (_, vbs, body) ->
            List.iter (fun (vb : Typedtree.value_binding) ->
                expr self vb.Typedtree.vb_expr) vbs;
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
            let pos = positional args in
            let fn_arg =
              List.find_opt
                (fun (a : Typedtree.expression) ->
                  match a.Typedtree.exp_desc with
                  | Typedtree.Texp_function _ -> true
                  | _ -> false)
                pos
            in
            let coll =
              match pos with [] -> None | _ -> List.nth_opt pos (List.length pos - 1)
            in
            (match (fn_arg, coll) with
            | Some fn, Some coll when not (sorted ~env:!env 8 coll) -> (
                match acquires fn with
                | Some tbl ->
                    let line = Typed.line_of e.Typedtree.exp_loc in
                    if not (silenced line) then
                      findings :=
                        {
                          Report.file = u.Typed.u_source;
                          line;
                          col = Typed.col_of e.Typedtree.exp_loc;
                          rule;
                          msg =
                            Fmt.str
                              "multi-key lock acquisition into %s iterates a \
                               footprint not dominated by a canonical \
                               List.sort_uniq — unsorted acquisition orders \
                               can deadlock under hold-and-wait; sort (and \
                               dedupe) the footprint first"
                              tbl;
                        }
                        :: !findings
                | None -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr self e
        | _ -> Tast_iterator.default_iterator.expr self e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.Tast_iterator.structure it u.Typed.u_structure)
    units;
  List.rev !findings
