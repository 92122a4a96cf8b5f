(* Regenerates the paper's two figures as ASCII transaction trees.

   Figure 1: a possible transaction tree for the replicated serial
   system B — user transactions, transaction managers, accesses to the
   replicas of logical items x and y, and non-replica accesses a, b.

   Figure 2: the corresponding tree for the non-replicated system A:
   the TMs become accesses to single objects x and y, the replicas
   disappear, and everything else is unchanged — the identity mapping
   that powers the Theorem 10 simulation.

   The trees are not hard-coded drawings: we build the actual system
   description, instantiate both systems, drive system B, and render
   the transactions that exist, so the figure is a live artifact of
   the implementation. *)

open Ioa

(* the paper's Figure 1 shape: two user transactions; the first has a
   non-replica access [a], a read of x and a nested user transaction
   that writes y; the second has a write of x and a non-replica
   access [b] *)
let description =
  let item name dms =
    Quorum.Item.make ~name ~dms ~config:(Quorum.Config.majority dms)
      ~initial:(Value.Int 0)
  in
  let x = item "x" [ "x1"; "x2"; "x3" ] in
  let y = item "y" [ "y1"; "y2" ] in
  let read obj seq =
    Serial.User_txn.Access_child
      (Txn.Access { obj; kind = Txn.Read; data = Value.Nil; seq })
  in
  let write obj v seq =
    Serial.User_txn.Access_child
      (Txn.Access { obj; kind = Txn.Write; data = Value.Int v; seq })
  in
  let script children =
    { Serial.User_txn.children; ordered = true;
      eager = false; returns = Serial.User_txn.return_all }
  in
  {
    Quorum.Description.items = [ x; y ];
    raw_objects = [ ("a", Value.Int 0); ("b", Value.Int 0) ];
    root_script =
      {
        Serial.User_txn.children =
          [
            Serial.User_txn.Sub
              ( "U1",
                script
                  [
                    read "a" 0;
                    read "x" 1;
                    Serial.User_txn.Sub ("U3", script [ write "y" 7 0 ]);
                  ] );
            Serial.User_txn.Sub ("U2", script [ write "x" 9 0; write "b" 5 1 ]);
          ];
        ordered = true;
        eager = false;
        returns = Serial.User_txn.return_nil;
      };
  }

(* Collect the transactions that actually took steps in a run, as a
   tree keyed by name. *)
let tree_of_schedule (sched : Schedule.t) =
  let names =
    List.sort_uniq Txn.compare (List.map Action.txn sched)
  in
  names

let label_b d (t : Txn.t) =
  match Quorum.Description.role_of d t with
  | Some Quorum.Description.User ->
      if Txn.is_root t then "T0 (root)" else "U  (user transaction)"
  | Some (Quorum.Description.Tm (i, Txn.Read)) ->
      Fmt.str "TM (read-TM for %s)" i.Quorum.Item.name
  | Some (Quorum.Description.Tm (i, Txn.Write)) ->
      Fmt.str "TM (write-TM for %s)" i.Quorum.Item.name
  | Some (Quorum.Description.Replica_access i) ->
      Fmt.str "access to a replica of %s" i.Quorum.Item.name
  | Some Quorum.Description.Raw_access -> "non-replica access"
  | None -> "?"

let label_a d (t : Txn.t) =
  match Quorum.Description.role_of d t with
  | Some Quorum.Description.User ->
      if Txn.is_root t then "T0 (root)" else "U  (user transaction)"
  | Some (Quorum.Description.Tm (i, k)) ->
      Fmt.str "%s access to %s"
        (match k with Txn.Read -> "read" | Txn.Write -> "write")
        i.Quorum.Item.name
  | Some (Quorum.Description.Replica_access _) -> "(erased)"
  | Some Quorum.Description.Raw_access -> "access"
  | None -> "?"

let seg_string (s : Txn.seg) = Fmt.str "%a" Txn.pp_seg s

let render ~label names =
  let depth t = Txn.depth t in
  List.iter
    (fun t ->
      let indent = String.concat "" (List.init (depth t) (fun _ -> "  ")) in
      let name =
        if Txn.is_root t then "T0"
        else
          match Txn.last_seg t with Some s -> seg_string s | None -> "?"
      in
      Fmt.pr "%s%-40s %s@." indent name (label t))
    names

(* [figures.exe [fig1|fig2|both]]: exit 1 if the Theorem 10 check
   fails, 2 on any other argument *)
let () =
  let which =
    match Array.to_list Sys.argv with
    | [ _ ] -> "both"
    | [ _; ("fig1" | "fig2" | "both" as w) ] -> w
    | _ ->
        Fmt.epr "usage: figures.exe [fig1|fig2|both]@.";
        exit 2
  in
  let d = description in
  let run = Quorum.Harness.run_b ~abort_rate:0.0 ~seed:2 d in
  let beta = run.System.schedule in
  let erase = Quorum.Description.is_replica_access d in
  let alpha = Schedule.erase erase beta in
  if which = "fig1" || which = "both" then begin
    Fmt.pr "=== Figure 1: transaction tree of replicated system B ===@.";
    Fmt.pr "(x has replicas x1..x3 with majority quorums; y has y1, y2)@.@.";
    render ~label:(label_b d) (tree_of_schedule beta);
    Fmt.pr "@."
  end;
  if which = "fig2" || which = "both" then begin
    Fmt.pr "=== Figure 2: corresponding tree of non-replicated system A ===@.";
    Fmt.pr "(same names: TMs become accesses to single objects x, y)@.@.";
    render ~label:(label_a d) (tree_of_schedule alpha);
    Fmt.pr "@."
  end;
  (* the live proof: alpha replays on A *)
  match Quorum.Simulation.check ~erase d beta with
  | Ok _ -> Fmt.pr "Theorem 10 check on this run: OK@."
  | Error e ->
      Fmt.pr "Theorem 10 check FAILED: %s@." e;
      exit 1
