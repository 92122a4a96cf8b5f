(** Transaction names and the transaction tree.

    The system type (Section 2.2) organizes transaction names into a
    tree by a [parent] mapping with root [T0].  We realize the naming
    scheme structurally: a transaction name is the path of segments
    from the root, so [parent] is "drop the last segment" and the tree
    relations (ancestor, descendant, lca, siblings) are computable
    from names alone -- exactly the "predefined naming scheme for all
    possible transactions" the paper postulates.

    Two kinds of segments exist:

    - [Seg name] and [Param (name, v)]: ordinary (non-access)
      transaction names.  [Param] carries an input parameter, following
      the paper's footnote 1: "we consider transactions that have
      different input parameters to be different transactions".
    - [Access] segments name accesses in the sense of Section 2.3's
      read-write objects: the named object, the access kind
      (read/write), and -- for writes -- the data to be written.  The
      attributes [kind(T)] and [data(T)] of the paper are thus
      functions of the transaction name, as required (a basic object
      sees only [CREATE(T)] and must determine its behaviour from [T]).
      The [seq] field distinguishes repeated accesses by the same
      parent to the same object, reflecting that the tree contains a
      distinct name for every access that might ever be invoked.

    A central trick of the repository: the transaction managers of the
    replicated system B are named with [Access] segments whose [obj]
    is the *logical* data item.  In system B these names denote
    internal (non-access) transactions; in the derived system A the
    very same names denote accesses to the single read-write object
    implementing the item.  The mapping [7_BA] of the paper is then
    the identity on names, which makes the Theorem 10 simulation check
    a plain projection-and-replay. *)

type kind = Read | Write

type seg =
  | Seg of string
  | Param of string * Value.t
  | Access of { obj : string; kind : kind; data : Value.t; seq : int }

(** A transaction name: path of segments from the root.  The root
    transaction [T0] is the empty path. *)
type t = seg list

let root : t = []
let is_root t = t = []

let seg_equal a b =
  match (a, b) with
  | Seg x, Seg y -> String.equal x y
  | Param (x, v), Param (y, w) -> String.equal x y && Value.equal v w
  | Access a, Access b ->
      String.equal a.obj b.obj && a.kind = b.kind && a.seq = b.seq
      && Value.equal a.data b.data
  | (Seg _ | Param _ | Access _), _ -> false

let equal (a : t) (b : t) =
  List.length a = List.length b && List.for_all2 seg_equal a b

let compare (a : t) (b : t) = Stdlib.compare a b

(** [parent t] is the paper's [parent] mapping.  Undefined on the root. *)
let parent (t : t) : t =
  match t with
  | [] -> invalid_arg "Txn.parent: the root transaction has no parent"
  | _ -> List.filteri (fun i _ -> i < List.length t - 1) t

let child (t : t) (s : seg) : t = t @ [ s ]

let last_seg (t : t) : seg option =
  match List.rev t with [] -> None | s :: _ -> Some s

let depth = List.length

(** [is_ancestor a t]: is [a] an ancestor of [t]?  Per the paper's
    convention a transaction is its own ancestor. *)
let is_ancestor (a : t) (t : t) =
  let rec prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> seg_equal x y && prefix xs' ys'
    | _ :: _, [] -> false
  in
  prefix a t

(** [is_proper_ancestor a t] excludes the reflexive case. *)
let is_proper_ancestor a t = is_ancestor a t && not (equal a t)

(** Least common ancestor of two names. *)
let lca (a : t) (b : t) : t =
  let rec go xs ys acc =
    match (xs, ys) with
    | x :: xs', y :: ys' when seg_equal x y -> go xs' ys' (x :: acc)
    | _ -> List.rev acc
  in
  go a b []

(** Two distinct transactions with the same parent. *)
let are_siblings a b =
  (not (equal a b)) && (not (is_root a)) && (not (is_root b))
  && equal (parent a) (parent b)

(** [is_access t] holds when the name's final segment is an [Access]
    segment, i.e. [t] names a leaf that directly accesses an object.
    Whether such a name is an access *in a given system* additionally
    depends on the system type (see {!Serial}); in system B the TM
    names carry [Access] segments but are internal transactions. *)
let access_info (t : t) =
  match last_seg t with
  | Some (Access a) -> Some (a.obj, a.kind, a.data, a.seq)
  | Some (Seg _ | Param _) | None -> None

let obj_of (t : t) =
  match access_info t with Some (o, _, _, _) -> Some o | None -> None

let kind_of (t : t) =
  match access_info t with Some (_, k, _, _) -> Some k | None -> None

let data_of (t : t) =
  match access_info t with Some (_, _, d, _) -> Some d | None -> None

let pp_seg ppf = function
  | Seg s -> Fmt.string ppf s
  | Param (s, v) -> Fmt.pf ppf "%s(%a)" s Value.pp v
  | Access { obj; kind; data; seq } ->
      let k = match kind with Read -> "r" | Write -> "w" in
      Fmt.pf ppf "%s:%s%d(%a)" obj k seq Value.pp data

let pp ppf (t : t) =
  if t = [] then Fmt.string ppf "T0"
  else Fmt.pf ppf "T0/%a" Fmt.(list ~sep:(any "/") pp_seg) t

let to_string t = Fmt.str "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
