(** A simulated message-passing network with per-message latency,
    loss, node crashes and link cuts.

    Messages are typed ['msg]; each node registers one handler.
    Delivery rules: a message is dropped when the sender is down at
    send time, the destination is down at delivery time, the link is
    cut, or the loss coin says so — there are no delivery guarantees,
    exactly the asynchronous environment quorum consensus is built
    for.  Every drop is attributed to its reason, so nemesis
    experiments can tell partition drops from loss drops, and every
    send/deliver/drop is logged to the simulator's tracer. *)

module Prng = Qc_util.Prng

type latency = Prng.t -> src:string -> dst:string -> float

(** Why a message did not arrive. *)
type drop_reason = Sender_down | Dest_down | Link_cut | Loss | Filtered

let drop_reason_label = function
  | Sender_down -> "sender_down"
  | Dest_down -> "dest_down"
  | Link_cut -> "link_cut"
  | Loss -> "loss"
  | Filtered -> "filtered"


(** A per-link fault filter: what a directed link does to the messages
    crossing it.  [Drop_all] swallows everything (a one-way cut),
    [Drop_first n] swallows the next [n] messages then passes the rest
    (the classic "lose the prepare, deliver the retry" scenario), and
    [Drop_prob p] flips a per-message coin on the simulation's PRNG. *)
type drop_spec = Drop_all | Drop_first of int | Drop_prob of float

let drop_spec_label = function
  | Drop_all -> "all"
  | Drop_first n -> Fmt.str "first:%d" n
  | Drop_prob p -> Fmt.str "prob:%.12g" p

type link_filter = {
  spec : drop_spec;
  mutable remaining : int;  (** for [Drop_first]: drops left to spend *)
  mutable filter_dropped : int;  (** messages this filter swallowed *)
}

(* One record per node, at index [id] of the node table.  A delivery
   reads [up] and [handler] when it fires, so a crash, recovery or
   [register] between send and delivery counts. *)
type 'msg node = {
  name : string;
  mutable up : bool;
  mutable handler : (src:int -> 'msg -> unit) option;
}

type 'msg t = {
  sim : Core.t;
  latency : latency;
  mutable loss : float;
  mutable nodes : 'msg node array;
      (** indexed by id; slots at [n_nodes] and beyond are spare *)
  mutable n_nodes : int;
  ids : int Qc_util.Strtbl.t;  (** name -> id, for the string API *)
  cut_links : (string * string, bool) Hashtbl.t;
  filters : (string * string, link_filter) Hashtbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable payload_sent : int;
  mutable payload_delivered : int;
  mutable drop_sender_down : int;
  mutable drop_dest_down : int;
  mutable drop_link_cut : int;
  mutable drop_loss : int;
  mutable drop_filtered : int;
}

(** Uniform latency on [lo, hi]. *)
let uniform_latency ~lo ~hi : latency =
 fun rng ~src:_ ~dst:_ -> lo +. ((hi -. lo) *. Prng.float rng)

(** Log-normal latency (heavy tail, the realistic default). *)
let lognormal_latency ~mu ~sigma : latency =
 fun rng ~src:_ ~dst:_ -> Prng.lognormal rng ~mu ~sigma

(* The id of the node named [n], created down and without a handler
   on first use: a name never declared to [create] behaves as a
   crashed node. *)
let id t n =
  match Qc_util.Strtbl.find t.ids n with
  | i -> i
  | exception Not_found ->
      let i = t.n_nodes in
      if i = Array.length t.nodes then begin
        let grown = Array.make (2 * i) t.nodes.(0) in
        Array.blit t.nodes 0 grown 0 i;
        t.nodes <- grown
      end;
      t.nodes.(i) <- { name = n; up = false; handler = None };
      t.n_nodes <- i + 1;
      Qc_util.Strtbl.add t.ids n i;
      i

let node_of_id t i =
  if i < 0 || i >= t.n_nodes then
    invalid_arg (Printf.sprintf "Net: no node with id %d" i);
  t.nodes.(i)

let name t i = (node_of_id t i).name
let node t n = t.nodes.(id t n)

let create ~(sim : Core.t) ~nodes ?(latency = uniform_latency ~lo:1.0 ~hi:5.0)
    ?(loss = 0.0) () : 'msg t =
  let spare = { name = ""; up = false; handler = None } in
  let t =
    {
      sim;
      latency;
      loss;
      nodes = Array.make (max 1 (List.length nodes)) spare;
      n_nodes = 0;
      ids = Qc_util.Strtbl.create 16;
      cut_links = Hashtbl.create 16;
      filters = Hashtbl.create 16;
      sent = 0;
      delivered = 0;
      payload_sent = 0;
      payload_delivered = 0;
      drop_sender_down = 0;
      drop_dest_down = 0;
      drop_link_cut = 0;
      drop_loss = 0;
      drop_filtered = 0;
    }
  in
  List.iter (fun n -> (node t n).up <- true) nodes;
  t

let sim t = t.sim
let tracer t = Core.tracer t.sim

let register_id t ~node:i handler = (node_of_id t i).handler <- Some handler

let register t ~node:n handler =
  register_id t ~node:(id t n) (fun ~src msg -> handler ~src:(name t src) msg)

let set_loss t p = t.loss <- p

let is_up t n =
  match Qc_util.Strtbl.find t.ids n with
  | i -> t.nodes.(i).up
  | exception Not_found -> false

let crash t n =
  (node t n).up <- false;
  let tr = tracer t in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"net" ~name:"crash" ~track:n ()

let recover t n =
  (node t n).up <- true;
  let tr = tracer t in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"net" ~name:"recover" ~track:n ()

let cut_link t a b =
  Hashtbl.replace t.cut_links (a, b) true;
  Hashtbl.replace t.cut_links (b, a) true

let heal_link t a b =
  Hashtbl.remove t.cut_links (a, b);
  Hashtbl.remove t.cut_links (b, a)

let link_cut t a b = Hashtbl.mem t.cut_links (a, b)

let heal_all_links t = Hashtbl.reset t.cut_links

(** Install a fault filter on the directed link [src -> dst],
    replacing any previous one (and its drop counter). *)
let set_link_filter t ~src ~dst spec =
  let remaining = match spec with Drop_first n -> n | _ -> 0 in
  Hashtbl.replace t.filters (src, dst) { spec; remaining; filter_dropped = 0 }

let clear_link_filter t ~src ~dst = Hashtbl.remove t.filters (src, dst)
let clear_link_filters t = Hashtbl.reset t.filters

let link_filter t ~src ~dst =
  Option.map (fun f -> f.spec) (Hashtbl.find_opt t.filters (src, dst))

let link_filter_drops t ~src ~dst =
  match Hashtbl.find_opt t.filters (src, dst) with
  | Some f -> f.filter_dropped
  | None -> 0

(* canonical order at the Hashtbl boundary, like the rest of the repo *)
let filtered_links t =
  (* lint: order-insensitive *)
  Hashtbl.fold
    (fun (src, dst) f acc -> ((src, dst), f.spec, f.filter_dropped) :: acc)
    t.filters []
  |> List.sort (fun ((a, b), _, _) ((c, d), _, _) ->
         match String.compare a c with 0 -> String.compare b d | n -> n)

(* Does the filter swallow this message?  [Drop_prob] draws from the
   simulation PRNG — one extra draw per filtered-link message, none on
   unfiltered links, so filter-free runs keep their historical PRNG
   stream. *)
let filter_fires t f =
  match f.spec with
  | Drop_all -> true
  | Drop_first _ ->
      if f.remaining > 0 then begin
        f.remaining <- f.remaining - 1;
        true
      end
      else false
  | Drop_prob p -> Prng.float (Core.rng t.sim) < p

let drop t ~src ~dst reason =
  (match reason with
  | Sender_down -> t.drop_sender_down <- t.drop_sender_down + 1
  | Dest_down -> t.drop_dest_down <- t.drop_dest_down + 1
  | Link_cut -> t.drop_link_cut <- t.drop_link_cut + 1
  | Loss -> t.drop_loss <- t.drop_loss + 1
  | Filtered -> t.drop_filtered <- t.drop_filtered + 1);
  let tr = tracer t in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"net" ~name:"drop" ~track:dst
      ~args:
        [
          ("src", Obs.Trace.Str src);
          ("dst", Obs.Trace.Str dst);
          ("reason", Obs.Trace.Str (drop_reason_label reason));
        ]
      ()

(** Send a message; it may or may not arrive.  [payloads] is the
    number of logical requests the message carries — 1 for ordinary
    messages, the batch size for batch frames — so experiments can
    report wire messages and logical payloads separately. *)
let send_id t ~src ~dst ?(payloads = 1) (msg : 'msg) =
  let s = node_of_id t src and d = node_of_id t dst in
  t.sent <- t.sent + 1;
  t.payload_sent <- t.payload_sent + payloads;
  let rng = Core.rng t.sim in
  let tr = tracer t in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"net" ~name:"send" ~track:s.name
      ~args:[ ("dst", Obs.Trace.Str d.name) ]
      ();
  (* reason checks in the original short-circuit order, so the PRNG
     draws exactly when it always did; the link filter slots in after
     the cut check and touches the PRNG only on filtered links; the
     (src, dst) tables are consulted only while they hold an entry, so
     fault-free sends build no tuple keys *)
  if not s.up then drop t ~src:s.name ~dst:d.name Sender_down
  else if Hashtbl.length t.cut_links > 0 && link_cut t s.name d.name then
    drop t ~src:s.name ~dst:d.name Link_cut
  else if
    Hashtbl.length t.filters > 0
    &&
    match Hashtbl.find_opt t.filters (s.name, d.name) with
    | Some f when filter_fires t f ->
        f.filter_dropped <- f.filter_dropped + 1;
        true
    | _ -> false
  then drop t ~src:s.name ~dst:d.name Filtered
  else if Prng.float rng < t.loss then drop t ~src:s.name ~dst:d.name Loss
  else
    let delay = t.latency rng ~src:s.name ~dst:d.name in
    (* the closure captures the sender's id, not its record, and
       reads the tracer back from [t]: names are looked up only when
       traced or dropped *)
    Core.schedule t.sim ~delay (fun () ->
        match d.handler with
        | Some h when d.up ->
            t.delivered <- t.delivered + 1;
            t.payload_delivered <- t.payload_delivered + payloads;
            let tr = tracer t in
            if Obs.Trace.enabled tr then
              Obs.Trace.instant tr ~cat:"net" ~name:"deliver" ~track:d.name
                ~args:
                  [
                    ("src", Obs.Trace.Str t.nodes.(src).name);
                    ("latency", Obs.Trace.Float delay);
                  ]
                ();
            h ~src msg
        | _ -> drop t ~src:t.nodes.(src).name ~dst:d.name Dest_down)

let send t ~src ~dst ?payloads msg =
  send_id t ~src:(id t src) ~dst:(id t dst) ?payloads msg

type counters = {
  sent : int;
  delivered : int;
  payload_sent : int;
      (** logical requests sent — equals [sent] unless batching wraps
          several payloads into one wire message *)
  payload_delivered : int;
  dropped : int;  (** total over every reason *)
  drop_sender_down : int;
  drop_dest_down : int;
  drop_link_cut : int;
  drop_loss : int;
  drop_filtered : int;
}

let counters (t : 'msg t) =
  {
    sent = t.sent;
    delivered = t.delivered;
    payload_sent = t.payload_sent;
    payload_delivered = t.payload_delivered;
    dropped =
      t.drop_sender_down + t.drop_dest_down + t.drop_link_cut + t.drop_loss
      + t.drop_filtered;
    drop_sender_down = t.drop_sender_down;
    drop_dest_down = t.drop_dest_down;
    drop_link_cut = t.drop_link_cut;
    drop_loss = t.drop_loss;
    drop_filtered = t.drop_filtered;
  }
