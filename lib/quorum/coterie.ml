(** Coterie analysis (Barbara & Garcia-Molina, the source of the
    paper's generalized configurations).

    A {e coterie} over a universe U is an antichain of pairwise-
    intersecting subsets (quorums).  Coterie theory's central quality
    criterion is {e domination}: C1 dominates C2 when they differ and
    every quorum of C2 contains a quorum of C1 — then C1 is available
    whenever C2 is (and strictly more often), so dominated coteries
    are never worth deploying.  A coterie is {e non-dominated} (ND)
    iff every transversal (a set meeting all quorums) contains a
    quorum — checked here by enumeration (universes up to ~16).

    For the paper's read/write configurations the pairwise
    intersection is only required {e between} the read and write
    sides (a "bicoterie"); this module provides the corresponding
    legality, minimization, and domination comparisons, used by the
    tests and by the configuration-quality table. *)

type t = {
  universe : string list;
  quorums : int list;  (** bitmasks over [universe], an antichain *)
}

let full_mask universe = (1 lsl List.length universe) - 1

let mask_of universe quorum =
  List.fold_left
    (fun m d ->
      match List.find_index (String.equal d) universe with
      | Some i -> m lor (1 lsl i)
      | None -> invalid_arg (Fmt.str "Coterie: %s not in universe" d))
    0 quorum

let quorum_of universe mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) universe

let subset a b = a land lnot b = 0
let intersects a b = a land b <> 0

(** Drop non-minimal quorums (keep the antichain of minimal ones). *)
let minimize (masks : int list) : int list =
  let masks = List.sort_uniq Int.compare masks in
  List.filter
    (fun q -> not (List.exists (fun q' -> q' <> q && subset q' q) masks))
    masks

(** Build a coterie from explicit quorums (minimized).
    @raise Invalid_argument when two quorums fail to intersect (the
    coterie property). *)
let make ~universe ~quorums =
  let masks = minimize (List.map (mask_of universe) quorums) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (intersects a b) then
            invalid_arg "Coterie.make: quorums must pairwise intersect")
        masks)
    masks;
  { universe; quorums = masks }

(** The write side of a configuration as a coterie, when it is one
    (write-write intersection is {e not} required by the paper's
    algorithm, so this can fail for legal configurations — that is
    precisely the generalization). *)
let of_write_side (c : Config.t) : t option =
  let universe = Config.members c in
  match make ~universe ~quorums:c.Config.write_quorums with
  | coterie -> Some coterie
  | exception Invalid_argument _ -> None

(** [covers t mask]: does [mask] contain some quorum? *)
let covers t mask = List.exists (fun q -> subset q mask) t.quorums

(** [transversal t mask]: does [mask] intersect every quorum? *)
let transversal t mask = List.for_all (fun q -> intersects q mask) t.quorums

(** Non-domination: every transversal contains a quorum.  Exhaustive
    over subsets of the universe (|U| <= ~16). *)
let non_dominated t =
  let full = full_mask t.universe in
  let rec go m =
    if m > full then true
    else if transversal t m && not (covers t m) then false
    else go (m + 1)
  in
  go 0

(** A witness of domination: a transversal containing no quorum (the
    set one would add as a new quorum to dominate this coterie), if
    any. *)
let domination_witness t =
  let full = full_mask t.universe in
  let rec go m =
    if m > full then None
    else if transversal t m && not (covers t m) then
      Some (quorum_of t.universe m)
    else go (m + 1)
  in
  go 0

(** [dominates c1 c2]: distinct coteries over the same universe where
    every quorum of [c2] contains a quorum of [c1]. *)
let dominates c1 c2 =
  c1.quorums <> c2.quorums
  && List.for_all (fun q2 -> covers c1 q2) c2.quorums

(** {1 Read/write configurations (bicoteries)} *)

(** Minimize both sides of a configuration (availability and coverage
    predicates are unchanged; smaller representation). *)
let minimize_config (c : Config.t) : Config.t =
  let universe = Config.members c in
  let side qs =
    List.map (quorum_of universe) (minimize (List.map (mask_of universe) qs))
  in
  Config.make
    ~read_quorums:(side c.Config.read_quorums)
    ~write_quorums:(side c.Config.write_quorums)

(** [config_dominates c1 c2] (weak domination over the same universe):
    every read quorum of [c2] contains a read quorum of [c1] and every
    write quorum of [c2] contains a write quorum of [c1], with the
    configurations distinct — then [c1] can serve every operation [c2]
    can, on every liveness pattern, and strictly more. *)
let config_dominates (c1 : Config.t) (c2 : Config.t) =
  let u = List.sort_uniq String.compare (Config.members c1 @ Config.members c2) in
  let masks qs = List.map (mask_of u) qs in
  let covers_side side1 side2 =
    List.for_all
      (fun q2 -> List.exists (fun q1 -> subset q1 q2) (masks side1))
      (masks side2)
  in
  (not (Config.equal (minimize_config c1) (minimize_config c2)))
  && covers_side c1.Config.read_quorums c2.Config.read_quorums
  && covers_side c1.Config.write_quorums c2.Config.write_quorums

