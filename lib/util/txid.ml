type t = { id : int; name : string }

let make ~coord ~coord_name n =
  { id = (coord lsl 32) lor n; name = coord_name ^ "#t" ^ string_of_int n }
