(** Random generation of reconfigurable system descriptions. *)

open Ioa
module Prng = Qc_util.Prng
module Config = Quorum.Config

type params = {
  max_items : int;
  max_dms : int;
  max_depth : int;
  max_children : int;
  max_candidates : int;
  max_recons_per_txn : int;
}

let default_params =
  {
    max_items = 2;
    max_dms = 4;
    max_depth = 2;
    max_children = 3;
    max_candidates = 2;
    max_recons_per_txn = 1;
  }

let config rng dms =
  match Prng.int rng 4 with
  | 0 -> Config.rowa dms
  | 1 -> Config.raow dms
  | 2 -> Config.majority dms
  | _ ->
      let core = Prng.choose rng dms in
      let quorums () =
        let n = 1 + Prng.int rng 2 in
        List.init n (fun _ ->
            core :: Prng.subset rng (List.filter (( <> ) core) dms) ~p:0.5)
      in
      Config.make ~read_quorums:(quorums ()) ~write_quorums:(quorums ())

let item rng ~params i =
  let name = Fmt.str "x%d" i in
  let n_dms = 2 + Prng.int rng (params.max_dms - 1) in
  let dms = List.init n_dms (fun j -> Fmt.str "%s_d%d" name j) in
  let n_cands = 1 + Prng.int rng params.max_candidates in
  Item.make ~name ~dms ~initial:(Value.Int (Prng.int rng 100))
    ~initial_config:(config rng dms)
    ~candidates:(List.init n_cands (fun _ -> config rng dms))

let rec script rng ~params ~items ~depth ~label : Serial.User_txn.script =
  let n = 1 + Prng.int rng params.max_children in
  let children =
    List.init n (fun idx ->
        match Prng.int rng (if depth > 0 then 3 else 2) with
        | 0 ->
            let it : Item.t = Prng.choose rng items in
            Serial.User_txn.Access_child
              (Txn.Access
                 { obj = it.Item.plain.name; kind = Txn.Read; data = Value.Nil; seq = idx })
        | 1 ->
            let it : Item.t = Prng.choose rng items in
            Serial.User_txn.Access_child
              (Txn.Access
                 {
                   obj = it.Item.plain.name;
                   kind = Txn.Write;
                   data = Value.Int (Prng.int rng 1_000_000);
                   seq = idx;
                 })
        | _ ->
            let sub_label = Fmt.str "%s_u%d" label idx in
            Serial.User_txn.Sub
              (sub_label, script rng ~params ~items ~depth:(depth - 1) ~label:sub_label))
  in
  {
    Serial.User_txn.children;
    ordered = Prng.bool rng;
    eager = Prng.float rng < 0.2;
    returns = Serial.User_txn.return_all;
  }

let description ?(params = default_params) rng : Description.t =
  let n_items = 1 + Prng.int rng params.max_items in
  let items = List.init n_items (fun i -> item rng ~params i) in
  let top = 1 + Prng.int rng 2 in
  let children =
    List.init top (fun idx ->
        let label = Fmt.str "top%d" idx in
        Serial.User_txn.Sub
          (label, script rng ~params ~items ~depth:params.max_depth ~label))
  in
  Description.make ~items ~raw_objects:[]
    ~root_script:
      {
        Serial.User_txn.children;
        ordered = Prng.bool rng;
        eager = false;
        returns = Serial.User_txn.return_nil;
      }
    ~max_recons_per_txn:params.max_recons_per_txn
