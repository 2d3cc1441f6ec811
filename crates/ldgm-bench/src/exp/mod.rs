//! One module per paper experiment. Every module exposes
//! `run(w: &mut dyn Write) -> io::Result<()>` printing the regenerated
//! table/figure; the `table1`..`fig11` binaries are thin wrappers and
//! `repro_all` writes the full set under `target/repro/`.

pub mod ext_dynamic;
pub mod ext_generations;
pub mod ext_oocore;
pub mod ext_scaling;
pub mod ext_serve;
pub mod ext_static_opt;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

use std::io::{self, Write};

/// An experiment entry point: writes its report to the given sink.
pub type ExpRunner = fn(&mut dyn Write) -> io::Result<()>;

/// All experiments as (id, runner) pairs, in paper order.
pub fn all() -> Vec<(&'static str, ExpRunner)> {
    vec![
        ("table1", table1::run as ExpRunner),
        ("table2", table2::run),
        ("table3", table3::run),
        ("table4", table4::run),
        ("table5", table5::run),
        ("table6", table6::run),
        ("fig4", fig4::run),
        ("fig5", fig5::run),
        ("fig6", fig6::run),
        ("fig7", fig7::run),
        ("fig8", fig8::run),
        ("fig9", fig9::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("ext_dynamic", ext_dynamic::run),
        ("ext_generations", ext_generations::run),
        ("ext_oocore", ext_oocore::run),
        ("ext_scaling", ext_scaling::run),
        ("ext_serve", ext_serve::run),
        ("ext_static_opt", ext_static_opt::run),
    ]
}
