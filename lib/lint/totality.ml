(** Protocol handler totality.

    PR 8 grew {!Store.Protocol.msg} to fourteen frames; the safety of
    the transaction layer depends on no side silently dropping one —
    a wildcard arm in the replica dispatch would swallow a new frame
    at run time with no error anywhere.  This pass makes the shape a
    static contract, driven by attributes so the store and any future
    protocol opt in the same way:

    - [type msg = ... [@@lint.protocol]] declares a protocol type;
    - [let[@lint.protocol_handler] serve ...] marks the dispatch:
      every [match] over the protocol type inside it must be
      wildcard-free, and together the matches must name every
      constructor;
    - [let[@lint.protocol_serialize] to_wire ...] — same obligation;
    - [let[@lint.protocol_deserialize] of_wire ...] must {e construct}
      every constructor (a decoder that can never produce a frame has
      dropped it on the receive side).

    A protocol type with no annotated handler anywhere in the analyzed
    program is itself a finding: the dispatch contract must exist, not
    merely hold vacuously.  Serializers and deserializers are optional
    (a protocol that never leaves the process has none) and are
    checked where they exist.

    A finding line can be silenced with [(* lint: totality-ok *)]. *)

let rule = "handler-totality"

type proto = {
  p_unit : string;
  p_type : string;  (** type name, e.g. ["msg"] *)
  p_source : string;
  p_line : int;
  p_constructors : string list;  (** declaration order *)
}

type role = Handler | Serialize | Deserialize

let role_attr = function
  | Handler -> "protocol_handler"
  | Serialize -> "protocol_serialize"
  | Deserialize -> "protocol_deserialize"

let role_name = function
  | Handler -> "handler"
  | Serialize -> "serializer"
  | Deserialize -> "deserializer"

type marked = {
  m_role : role;
  m_name : string;
  m_unit : string;
  m_source : string;
  m_line : int;
  m_col : int;
  m_expr : Typedtree.expression;
}

(* ---------- collection ---------- *)

let collect_protos (u : Typed.unit_info) : proto list =
  let acc = ref [] in
  let type_declaration _self (td : Typedtree.type_declaration) =
    if Typed.has_attr td.Typedtree.typ_attributes "protocol" then
      match td.Typedtree.typ_kind with
      | Typedtree.Ttype_variant cds ->
          acc :=
            {
              p_unit = u.Typed.u_name;
              p_type = td.Typedtree.typ_name.Location.txt;
              p_source = u.Typed.u_source;
              p_line = Typed.line_of td.Typedtree.typ_loc;
              p_constructors =
                List.map
                  (fun (cd : Typedtree.constructor_declaration) ->
                    cd.Typedtree.cd_name.Location.txt)
                  cds;
            }
            :: !acc
      | _ -> ()
  in
  let it = { Tast_iterator.default_iterator with type_declaration } in
  it.Tast_iterator.structure it u.Typed.u_structure;
  List.rev !acc

let collect_marked (u : Typed.unit_info) : marked list =
  let acc = ref [] in
  let value_binding _self (vb : Typedtree.value_binding) =
    let name =
      match Callgraph.pat_vars vb.Typedtree.vb_pat with
      | (id, _) :: _ -> Ident.name id
      | [] -> "_"
    in
    List.iter
      (fun role ->
        if Typed.has_attr vb.Typedtree.vb_attributes (role_attr role) then
          acc :=
            {
              m_role = role;
              m_name = name;
              m_unit = u.Typed.u_name;
              m_source = u.Typed.u_source;
              m_line = Typed.line_of vb.Typedtree.vb_pat.Typedtree.pat_loc;
              m_col = Typed.col_of vb.Typedtree.vb_pat.Typedtree.pat_loc;
              m_expr = vb.Typedtree.vb_expr;
            }
            :: !acc)
      [ Handler; Serialize; Deserialize ]
  in
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          value_binding self vb;
          Tast_iterator.default_iterator.value_binding self vb);
    }
  in
  it.Tast_iterator.structure it u.Typed.u_structure;
  List.rev !acc

(* ---------- type identity ---------- *)

(* Does this type expression denote protocol type [p]?  The path in a
   [Tconstr] is as the source wrote it (aliases unexpanded), so match
   by suffix: the last component must be the type name and the
   qualifying modules must be consistent with the declaring unit
   (["Store.Protocol.msg"] and ["Store__Protocol.msg"] both resolve to
   unit [Store__Protocol]; a bare ["msg"] must be used inside the
   declaring unit itself). *)
let type_is ~(current_unit : string) (p : proto) (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (path, _, _) -> (
      let parts = String.split_on_char '.' (Path.name path) in
      match List.rev parts with
      | tname :: rev_mods ->
          String.equal tname p.p_type
          &&
          let mods = List.rev rev_mods in
          let guess = String.concat "__" mods in
          (match mods with
          | [] -> String.equal current_unit p.p_unit
          | _ -> String.equal guess p.p_unit)
      | [] -> false)
  | _ -> false

(* ---------- pattern coverage ---------- *)

(* Walk one case pattern: record constructor names matched, and
   whether the case is a catch-all (wildcard or variable, possibly
   under or-patterns or aliases). *)
let rec pat_cover : type k.
    k Typedtree.general_pattern -> constructors:string list ref -> wild:bool ref -> unit =
 fun p ~constructors ~wild ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_any | Typedtree.Tpat_var _ -> wild := true
  | Typedtree.Tpat_alias (inner, _, _) -> pat_cover inner ~constructors ~wild
  | Typedtree.Tpat_or (a, b, _) ->
      pat_cover a ~constructors ~wild;
      pat_cover b ~constructors ~wild
  | Typedtree.Tpat_construct (_, cd, _, _) ->
      constructors := cd.Types.cstr_name :: !constructors
  | Typedtree.Tpat_value v -> pat_cover (v :> Typedtree.pattern) ~constructors ~wild
  | Typedtree.Tpat_exception _ -> ()
  | _ -> ()

type match_info = {
  mt_line : int;
  mt_col : int;
  mt_constructors : string list;
  mt_wild : (int * int) option;  (** loc of the offending catch-all case *)
}

(* Every match/function over protocol type [p] inside expression [e]. *)
let matches_over ~current_unit (p : proto) (e : Typedtree.expression) :
    match_info list =
  let acc = ref [] in
  let consider ~loc (cases : Typedtree.computation Typedtree.case list) =
    match cases with
    | [] -> ()
    | c0 :: _ ->
        if type_is ~current_unit p c0.Typedtree.c_lhs.Typedtree.pat_type then begin
          let constructors = ref [] and wild_loc = ref None in
          List.iter
            (fun (c : Typedtree.computation Typedtree.case) ->
              let wild = ref false in
              pat_cover c.Typedtree.c_lhs ~constructors ~wild;
              if !wild && !wild_loc = None then
                wild_loc :=
                  Some
                    ( Typed.line_of c.Typedtree.c_lhs.Typedtree.pat_loc,
                      Typed.col_of c.Typedtree.c_lhs.Typedtree.pat_loc ))
            cases;
          acc :=
            {
              mt_line = Typed.line_of loc;
              mt_col = Typed.col_of loc;
              mt_constructors = List.rev !constructors;
              mt_wild = !wild_loc;
            }
            :: !acc
        end
  in
  let value_cases_to_computation (cs : Typedtree.value Typedtree.case list) :
      Typedtree.computation Typedtree.case list =
    List.map
      (fun (c : Typedtree.value Typedtree.case) ->
        {
          Typedtree.c_lhs = Typedtree.as_computation_pattern c.Typedtree.c_lhs;
          c_guard = c.Typedtree.c_guard;
          c_rhs = c.Typedtree.c_rhs;
        })
      cs
  in
  let expr (self : Tast_iterator.iterator) (ex : Typedtree.expression) =
    (match ex.Typedtree.exp_desc with
    | Typedtree.Texp_match (_, cases, _) ->
        consider ~loc:ex.Typedtree.exp_loc cases
    | Typedtree.Texp_function { cases; _ } ->
        (* [fun m -> ...] is a parameter binding, not a dispatch: a
           single case whose pattern is a bare variable/wildcard names
           no constructor and must not count as a catch-all match.
           Multi-case [function C1 .. | C2 ..] (or a single
           constructor case) is a real match. *)
        let is_param_binding =
          match cases with
          | [ c ] ->
              let constructors = ref [] and wild = ref false in
              pat_cover
                (Typedtree.as_computation_pattern c.Typedtree.c_lhs)
                ~constructors ~wild;
              !wild && !constructors = []
          | _ -> false
        in
        if not is_param_binding then
          consider ~loc:ex.Typedtree.exp_loc (value_cases_to_computation cases)
    | _ -> ());
    Tast_iterator.default_iterator.expr self ex
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it e;
  List.rev !acc

(* Constructors of protocol type [p] constructed inside [e]. *)
let constructs_of ~current_unit (p : proto) (e : Typedtree.expression) :
    string list =
  let acc = ref [] in
  let expr (self : Tast_iterator.iterator) (ex : Typedtree.expression) =
    (match ex.Typedtree.exp_desc with
    | Typedtree.Texp_construct (_, cd, _) ->
        if type_is ~current_unit p cd.Types.cstr_res then
          acc := cd.Types.cstr_name :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.expr self ex
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it e;
  List.rev !acc

(* ---------- the pass ---------- *)

let finding ~source ~line ~col msg =
  { Report.file = source; line; col; rule; msg }

let missing_of ~all covered =
  List.filter (fun c -> not (List.mem c covered)) all

let run ~(units : Typed.unit_info list)
    ~(pragmas_of : string -> (int * string) list) : Report.finding list =
  let protos = List.concat_map collect_protos units in
  let marked = List.concat_map collect_marked units in
  let silenced source line =
    List.exists
      (fun (pl, tok) ->
        String.equal tok "totality-ok" && (pl = line || pl = line - 1))
      (pragmas_of source)
  in
  let findings = ref [] in
  let add ~source ~line ~col msg =
    if not (silenced source line) then
      findings := finding ~source ~line ~col msg :: !findings
  in
  List.iter
    (fun (p : proto) ->
      let qualified = Fmt.str "%s.%s" p.p_unit p.p_type in
      (* per role: the marked bindings that actually touch this type *)
      let role_bindings role =
        List.filter (fun m -> m.m_role = role) marked
      in
      let check_matches role =
        let bindings = role_bindings role in
        let relevant =
          List.filter_map
            (fun m ->
              match matches_over ~current_unit:m.m_unit p m.m_expr with
              | [] -> None
              | ms -> Some (m, ms))
            bindings
        in
        if relevant = [] then (
          if role = Handler then
            add ~source:p.p_source ~line:p.p_line ~col:0
              (Fmt.str
                 "protocol type %s has no [@lint.%s] that matches it — a new \
                  frame would have nowhere to be dispatched"
                 qualified (role_attr role)))
        else begin
          (* wildcard arms are findings wherever they appear *)
          List.iter
            (fun ((m : marked), ms) ->
              List.iter
                (fun mi ->
                  match mi.mt_wild with
                  | Some (line, col) ->
                      add ~source:m.m_source ~line ~col
                        (Fmt.str
                           "%s %s matches %s with a catch-all pattern — a new \
                            frame would be silently swallowed; spell every \
                            constructor"
                           (role_name role) m.m_name qualified)
                  | None -> ())
                ms)
            relevant;
          (* union coverage across every relevant match *)
          let covered =
            List.concat_map
              (fun (_, ms) -> List.concat_map (fun mi -> mi.mt_constructors) ms)
              relevant
          in
          let missing = missing_of ~all:p.p_constructors covered in
          if missing <> [] then
            let m, _ = List.hd relevant in
            add ~source:m.m_source ~line:m.m_line ~col:m.m_col
              (Fmt.str "%s %s never matches constructor%s %s of %s"
                 (role_name role) m.m_name
                 (if List.length missing = 1 then "" else "s")
                 (String.concat ", " missing)
                 qualified)
        end
      in
      check_matches Handler;
      check_matches Serialize;
      (* deserializer, where there is one: must be able to produce
         every frame *)
      let deser = role_bindings Deserialize in
      let relevant =
        List.filter_map
          (fun m ->
            match constructs_of ~current_unit:m.m_unit p m.m_expr with
            | [] -> None
            | cs -> Some (m, cs))
          deser
      in
      let covered = List.concat_map snd relevant in
      let missing = missing_of ~all:p.p_constructors covered in
      match relevant with
      | (m, _) :: _ when missing <> [] ->
          add ~source:m.m_source ~line:m.m_line ~col:m.m_col
            (Fmt.str
               "deserializer %s never constructs %s of %s — the receive side \
                drops %s frames"
               m.m_name
               (String.concat ", " missing)
               qualified
               (String.concat ", " missing))
      | _ -> ())
    protos;
  List.rev !findings
