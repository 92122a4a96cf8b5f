(** Descriptions of replicated nested-transaction systems.

    A description fixes everything Section 3.1 parameterizes system B
    over: the logical items [I] (with their DM sets and legal
    configurations), any non-replicated basic objects, and the user
    transaction tree (as scripts).  {!System_b} and {!System_a} build
    the replicated and non-replicated serial systems from the same
    description, which is what makes the Theorem 10 comparison
    meaningful: system B is an extension of system A with the same
    user transactions. *)

open Ioa

type t = {
  items : Item.t list;
  raw_objects : (string * Value.t) list;
      (** non-replicated basic objects: (name, initial value) *)
  root_script : Serial.User_txn.script;
      (** the root transaction's script; its children are the
          top-level ("classical") transactions *)
}

let item t name =
  List.find_opt (fun i -> String.equal i.Item.name name) t.items

let all_dm_names t = List.concat_map (fun i -> i.Item.dms) t.items
let raw_names t = List.map fst t.raw_objects

(** How a transaction name is interpreted in system B. *)
type role =
  | User  (** a user transaction (including the root) *)
  | Tm of Item.t * Txn.kind  (** a transaction manager for an item *)
  | Replica_access of Item.t  (** an access to a DM *)
  | Raw_access  (** an access to a non-replicated basic object *)

let role_of t (txn : Txn.t) : role option =
  match Txn.obj_of txn with
  | None -> Some User
  | Some obj -> (
      match item t obj with
      | Some i -> (
          match Txn.kind_of txn with
          | Some k -> Some (Tm (i, k))
          | None -> None)
      | None -> (
          match List.find_opt (fun i -> List.mem obj i.Item.dms) t.items with
          | Some owner -> Some (Replica_access owner)
          | None ->
              if List.mem obj (raw_names t) then Some Raw_access else None))

(** Accesses of system B: replica accesses and raw-object accesses. *)
let is_access_b t txn =
  match role_of t txn with
  | Some (Replica_access _) | Some Raw_access -> true
  | Some User | Some (Tm _) | None -> false

(** Accesses of system A: the TM names become accesses to the single
    object per item; raw accesses are unchanged. *)
let is_access_a t txn =
  match role_of t txn with
  | Some (Tm _) | Some Raw_access -> true
  | Some User | Some (Replica_access _) | None -> false

(** Is [txn] an operationally relevant replica access (used by the
    Theorem 10 projection, which erases exactly these)? *)
let is_replica_access t txn =
  match role_of t txn with
  | Some (Replica_access _) -> true
  | Some User | Some (Tm _) | Some Raw_access | None -> false

let fail fmt = Fmt.kstr (fun s -> Error s) fmt

(** Validate the description: distinct item names; pairwise-disjoint
    DM sets (required: dm(x) ∩ dm(y) = {} for x <> y); DM, item and
    raw-object namespaces disjoint; every [Access_child] in the
    scripts resolves to an item or a raw object; every item
    configuration is legal over its DMs. *)
let validate (t : t) : (unit, string) result =
  let ( let* ) = Result.bind in
  let names = List.map (fun i -> i.Item.name) t.items in
  let* () =
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then fail "duplicate item names"
    else Ok ()
  in
  let dms = all_dm_names t in
  let* () =
    if List.length (List.sort_uniq String.compare dms) <> List.length dms then
      fail "overlapping dm(x) sets"
    else Ok ()
  in
  let raw = raw_names t in
  let* () =
    let universe = names @ dms @ raw in
    if
      List.length (List.sort_uniq String.compare universe)
      <> List.length universe
    then fail "item, DM and raw-object namespaces overlap"
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc i ->
        let* () = acc in
        if Config.legal i.Item.config then Ok ()
        else fail "item %s: illegal configuration" i.Item.name)
      (Ok ()) t.items
  in
  let accesses =
    Serial.User_txn.access_children ~self:Txn.root t.root_script
  in
  List.fold_left
    (fun acc a ->
      let* () = acc in
      match Txn.obj_of a with
      | Some obj when List.mem obj names || List.mem obj raw -> Ok ()
      | Some obj -> fail "script access %a names unknown object %s" Txn.pp a obj
      | None -> fail "script access %a carries no object" Txn.pp a)
    (Ok ()) accesses

(** The serial system every builder shares: the serial scheduler, the
    user transactions, [components] (the builder's own objects and
    managers), then the raw objects. *)
let compose ~builder (t : t) components : System.t =
  (match validate t with
  | Ok () -> ()
  | Error e -> invalid_arg (Fmt.str "%s: %s" builder e));
  let txns =
    Serial.User_txn.make_tree ~no_commit:true ~self:Txn.root t.root_script
  in
  let raws =
    List.map
      (fun (name, initial) -> Serial.Rw_object.make ~name ~initial ())
      t.raw_objects
  in
  System.compose ((Serial.Scheduler.make () :: txns) @ components @ raws)

(** All user-transaction names in the description (root included). *)
let user_txns (t : t) : Txn.t list =
  let rec go self (s : Serial.User_txn.script) =
    self
    :: List.concat_map
         (function
           | Serial.User_txn.Access_child _ -> []
           | Serial.User_txn.Sub (name, sub) ->
               go (Txn.child self (Txn.Seg name)) sub)
         s.Serial.User_txn.children
  in
  go Txn.root t.root_script

(** All logical-access (TM) names appearing in the scripts, with the
    item each belongs to. *)
let tm_names (t : t) : (Txn.t * Item.t * Txn.kind) list =
  Serial.User_txn.access_children ~self:Txn.root t.root_script
  |> List.filter_map (fun a ->
         match (Txn.obj_of a, Txn.kind_of a) with
         | Some obj, Some k -> (
             match item t obj with
             | Some i -> Some (a, i, k)
             | None -> None)
         | _ -> None)
