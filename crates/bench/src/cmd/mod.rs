//! The subcommand registry: one module per report, one row per module.

use std::process::ExitCode;

use crate::cli::{CliError, Flags};
use crate::manifest;

/// One `dsm` subcommand.
pub struct Command {
    pub name: &'static str,
    /// The usage line printed under the reason a command line is bad.
    pub usage: &'static str,
    /// Parse the subcommand's arguments and run it.
    pub run: fn(Flags) -> Result<ExitCode, CliError>,
}

/// Declare each report's module, and [`COMMANDS`] with a row per module
/// (its name, `USAGE` and `run`) followed by the manifest's two.
macro_rules! commands {
    ($($module:ident)*) => {
        $(mod $module;)*

        /// Every subcommand, reports first in the paper's order.
        pub static COMMANDS: &[Command] = &[
            $(Command {
                name: stringify!($module),
                usage: $module::USAGE,
                run: $module::run,
            },)*
            Command {
                name: "list",
                usage: manifest::LIST_USAGE,
                run: manifest::list,
            },
            Command {
                name: "regen",
                usage: manifest::REGEN_USAGE,
                run: manifest::regen,
            },
        ];
    };
}

commands!(table1 fig2 fig3 fig4 summary sweep apptable checked campaign transport explore travel plan regions scale);
